#include "ncc/arena.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

// Cold paths of the arena subsystem: outbox growth, pool bookkeeping, and
// the sanitize/footprint sweeps. Everything per-send stays header-inline
// (OutArena::append).

namespace dgr::ncc {

// ------------------------------------------------------------ OutArena ----

void OutArena::grow(std::size_t need) {
  std::size_t next = cap == 0 ? 256 : cap * 2;
  while (next < len + need) next *= 2;
  auto nb = std::make_unique<std::uint64_t[]>(next);
  std::copy(buf.get(), buf.get() + len, nb.get());
  buf = std::move(nb);
  cap = next;
}

std::size_t OutArena::footprint_bytes() const {
  return cap * sizeof(std::uint64_t) + wake.capacity() * sizeof(Slot);
}

// --------------------------------------------------------- RoundScratch ----

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

void RoundScratch::prepare(std::size_t n, unsigned threads) {
  if (outboxes.size() < threads) outboxes.resize(threads);
  if (dest_count.size() < n) {
    // Grow-only: a pooled bundle keeps the high-water size across owners,
    // and the invariants guarantee the retained prefix is already zero.
    dest_count.resize(n, 0);
    inbox_lo.resize(n, 0);
    inbox_len.resize(n, 0);
    inbox_cur.resize(n, 0);
  }
  // The lazy tables stay absent until a round actually needs them; if a
  // previous owner materialized them, keep them coherent with the new n.
  if (!bitmap_off.empty() && bitmap_off.size() < n) ensure_overflow(n);
}

void RoundScratch::ensure_overflow(std::size_t n) {
  if (bitmap_off.size() >= n) return;
  bitmap_off.resize(n);
  ovf_cursor.resize(n);
  bounce_base.resize(n);
  bounce_cursor.resize(n);
  bounced.resize(n);
}

void RoundScratch::sanitize() {
  for (auto& out : outboxes) {
    out.len = 0;
    out.max_send = 0;
    out.wake.clear();
  }
  // touched_dests covers a round aborted mid-delivery (counts and inbox
  // extents written, tail cleanup never ran); inbox_dests covers the last
  // completed delivery.
  for (const Slot d : touched_dests) {
    dest_count[d] = 0;
    inbox_len[d] = 0;
  }
  touched_dests.clear();
  for (const Slot d : inbox_dests) inbox_len[d] = 0;
  inbox_dests.clear();
  for (const Slot s : bounce_srcs) bounced[s].clear();
  bounce_srcs.clear();
  ovf_dests.clear();
  ovf_bitmap.clear();
}

std::size_t RoundScratch::footprint_bytes() const {
  std::size_t b = 0;
  for (const auto& out : outboxes) b += out.footprint_bytes();
  b += vec_bytes(dest_count) + vec_bytes(inbox_lo) + vec_bytes(inbox_len) +
       vec_bytes(inbox_cur);
  b += vec_bytes(touched_dests) + vec_bytes(inbox_dests) +
       vec_bytes(bounce_srcs);
  b += inbox_cap * sizeof(std::uint64_t);
  b += vec_bytes(ovf_dests) + vec_bytes(ovf_bitmap) + vec_bytes(bitmap_off) +
       vec_bytes(ovf_cursor) + vec_bytes(bounce_base) +
       vec_bytes(bounce_cursor) + vec_bytes(overflow_idx);
  b += bounce_cap * sizeof(EncodedRef);
  b += vec_bytes(bounced);
  for (const auto& v : bounced) b += v.capacity() * sizeof(Bounced);
  return b;
}

bool RoundScratch::invariants_clean() const {
  for (const auto& out : outboxes) {
    if (out.len != 0 || !out.wake.empty()) return false;
  }
  if (!touched_dests.empty() || !inbox_dests.empty() || !bounce_srcs.empty())
    return false;
  for (const std::uint64_t c : dest_count)
    if (c != 0) return false;
  for (const std::uint32_t l : inbox_len)
    if (l != 0) return false;
  for (const auto& v : bounced)
    if (!v.empty()) return false;
  return true;
}

// ------------------------------------------------------------ ArenaPool ----

namespace {
/// Process-wide pool metrics shared by every ArenaPool instance; the
/// retained-bytes gauge aggregates deposits/withdrawals across pools (each
/// pool withdraws its own exported_bytes_ on trim/destruction). All
/// updates sit on the pool's cold mutex-guarded paths.
struct PoolMetrics {
  obs::Counter& acquires;
  obs::Counter& reuses;
  obs::Counter& dropped;
  obs::Gauge& retained_bytes;

  PoolMetrics()
      : acquires(obs::Registry::instance().counter(
            "dgr_pool_acquires_total", "RoundScratch bundles requested")),
        reuses(obs::Registry::instance().counter(
            "dgr_pool_reuses_total", "Acquires served by a pooled bundle")),
        dropped(obs::Registry::instance().counter(
            "dgr_pool_dropped_total",
            "Releases freed because the pool was full")),
        retained_bytes(obs::Registry::instance().gauge(
            "dgr_pool_retained_bytes",
            "Approximate bytes held by idle pooled bundles")) {}
};

PoolMetrics& pool_metrics() {
  static PoolMetrics* m = new PoolMetrics;  // immortal (late releases)
  return *m;
}
}  // namespace

ArenaPool::~ArenaPool() {
  std::lock_guard<std::mutex> lk(mu_);
  pool_metrics().retained_bytes.sub(static_cast<std::int64_t>(exported_bytes_));
  exported_bytes_ = 0;
}

std::unique_ptr<RoundScratch> ArenaPool::acquire() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.acquires;
    pool_metrics().acquires.add(1);
    if (!free_.empty()) {
      ++stats_.reuses;
      pool_metrics().reuses.add(1);
      auto s = std::move(free_.back());
      free_.pop_back();
      const std::size_t fp = s->footprint_bytes();
      pool_metrics().retained_bytes.sub(static_cast<std::int64_t>(fp));
      exported_bytes_ -= fp;
      return s;
    }
  }
  return std::make_unique<RoundScratch>();
}

void ArenaPool::release(std::unique_ptr<RoundScratch> scratch) {
  if (!scratch) return;
  scratch->sanitize();
  NCC_INVARIANT(scratch->invariants_clean(),
                "RoundScratch released to the pool with dirty between-round "
                "state (sanitize() failed to restore an invariant)");
  std::lock_guard<std::mutex> lk(mu_);
  if (free_.size() < max_free_) {
    const std::size_t fp = scratch->footprint_bytes();
    pool_metrics().retained_bytes.add(static_cast<std::int64_t>(fp));
    exported_bytes_ += fp;
    free_.push_back(std::move(scratch));
  } else {
    ++stats_.dropped;  // scratch frees on scope exit
    pool_metrics().dropped.add(1);
  }
}

void ArenaPool::trim() {
  std::lock_guard<std::mutex> lk(mu_);
  free_.clear();
  pool_metrics().retained_bytes.sub(static_cast<std::int64_t>(exported_bytes_));
  exported_bytes_ = 0;
}

std::size_t ArenaPool::retained_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t b = 0;
  for (const auto& s : free_) b += s->footprint_bytes();
  return b;
}

std::size_t ArenaPool::free_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return free_.size();
}

ArenaPool::Stats ArenaPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace dgr::ncc
