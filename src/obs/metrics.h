// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with per-thread sharded cells, snapshotted on demand.
//
// Design goals, in order:
//   1. Hot-path cost: an increment on an exclusively-owned shard is one
//      relaxed atomic load + one relaxed atomic store on a cache line no
//      other thread writes — no lock prefix, no fence, no false sharing.
//      Each OS thread is assigned a stable shard index on first use
//      (thread_shard()); shards are recycled when threads exit, and the
//      mutex-guarded assignment happens once per thread, never per update.
//      Threads beyond the shard table share one overflow cell and fall
//      back to fetch_add there, trading a lock prefix for correctness.
//   2. Snapshot on demand: value() sums the shards with relaxed loads.
//      Concurrent updates may or may not be included — a snapshot is a
//      point-in-time observation, not a barrier — but every update is
//      eventually visible and nothing is ever lost or double-counted.
//   3. Determinism: nothing here feeds a transcript. Metrics are written
//      from referee context or from cold control paths; the engine's
//      bit-identical-transcript contract is tested with the whole registry
//      attached and detached (tests/test_obs.cpp).
//
// Registration is get-or-create by name (mutex-guarded, cold): call sites
// resolve a Counter*/Gauge*/Histogram* once and keep the pointer. Metrics
// live for the registry's lifetime — the process, for instance() — so the
// pointers never dangle. Names follow the Prometheus convention
// (dgr_<subsystem>_<what>_<unit>[_total]); snapshot() returns metrics in
// lexicographic name order, so both exposition formats are byte-stable for
// a fixed set of values.
//
// Wall-clock inputs (latency histograms) are gated process-wide behind
// set_timing(true) — mirroring the engine's phase-timing rule that a
// detached run reads no clocks at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dgr::obs {

/// Shards per metric. 31 exclusive cells + 1 shared overflow cell: wider
/// than any sane worker-pool width in this codebase (Config::threads plus
/// a handful of driver/exporter threads), while keeping a histogram's
/// footprint modest (shards x buckets x 8 B).
inline constexpr std::size_t kShards = 32;

/// This thread's stable shard index in [0, kShards). Indices below
/// kShards - 1 are exclusively owned while the thread lives (released for
/// reuse at thread exit); kShards - 1 is the shared overflow shard.
std::size_t thread_shard();

/// One padded counter cell. Alignment keeps each shard on its own cache
/// line so two threads' increments never ping-pong a line.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};

namespace detail {
/// Sharded add: exclusive shards take the single relaxed load+store fast
/// path (one writer per cell by construction); the overflow shard is
/// shared, so it pays a fetch_add.
inline void cell_add(Cell* cells, std::uint64_t d) {
  const std::size_t s = thread_shard();
  std::atomic<std::uint64_t>& c = cells[s].v;
  if (s + 1 == kShards) [[unlikely]] {
    c.fetch_add(d, std::memory_order_relaxed);
  } else {
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
}

inline std::uint64_t cell_sum(const Cell* cells) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kShards; ++i)
    total += cells[i].v.load(std::memory_order_relaxed);
  return total;
}
}  // namespace detail

/// Monotone counter. add() is wait-free; value() is a relaxed sum.
class Counter {
 public:
  void add(std::uint64_t d = 1) { detail::cell_add(cells_, d); }
  std::uint64_t value() const { return detail::cell_sum(cells_); }

 private:
  Cell cells_[kShards];
};

/// Up/down gauge, held as a signed sum of sharded deltas so concurrent
/// instances (several caches) aggregate correctly: each instance adds its
/// deltas and subtracts them on teardown, and the gauge reads as the live
/// total. set() is intentionally absent — a last-writer-wins store per
/// instance would make the exported value depend on teardown order.
class Gauge {
 public:
  void add(std::int64_t d) {
    detail::cell_add(cells_, static_cast<std::uint64_t>(d));
  }
  void sub(std::int64_t d) { add(-d); }
  /// Signed sum (unsigned wraparound is two's-complement exact).
  std::int64_t value() const {
    return static_cast<std::int64_t>(detail::cell_sum(cells_));
  }

 private:
  Cell cells_[kShards];
};

/// Fixed-bucket histogram: cumulative-on-read counts for `bounds` upper
/// bucket edges (a value lands in the first bucket whose bound is >= it),
/// one implicit +inf bucket, and a running sum. Bucket edges are fixed at
/// registration; observe() is a linear scan over them (bucket counts here
/// are small — latency decades, batch sizes) plus two sharded adds.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v) {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    detail::cell_add(&cells_[b * kShards], 1);
    detail::cell_add(sum_.get(), v);
  }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +inf.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  std::uint64_t sum() const { return detail::cell_sum(sum_.get()); }

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<Cell[]> cells_;  // (bounds + 1) x kShards, bucket-major
  std::unique_ptr<Cell[]> sum_;    // kShards
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time reading of one metric (see Registry::snapshot).
struct Sample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::int64_t value = 0;  ///< counter/gauge reading
  // Histogram payload (empty otherwise).
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts, +inf last
  std::uint64_t sum = 0;
};

struct Snapshot {
  std::vector<Sample> samples;  ///< lexicographic by name
};

/// Prometheus text exposition (HELP/TYPE lines, histogram as cumulative
/// _bucket{le=...}/_sum/_count series). Byte-stable for fixed values.
std::string to_prometheus(const Snapshot& snap);

/// One JSON object keyed by metric name; histograms nest bounds/buckets/
/// sum/count. Byte-stable for fixed values.
std::string to_json(const Snapshot& snap);

/// Name -> metric registry. get-or-create calls are mutex-guarded and
/// idempotent (same name must keep the same type — a mismatch throws);
/// resolve once, keep the pointer. Metrics are never unregistered.
class Registry {
 public:
  /// The process-wide registry (what the exporter serves).
  static Registry& instance();

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<std::uint64_t> bounds);

  /// Poll-on-snapshot gauge: `fn` is invoked (under no registry lock
  /// ordering guarantees beyond "during snapshot()") to produce the value.
  /// The callback must stay valid for the registry's lifetime — use only
  /// for process-lifetime sources (Executor::instance() stats).
  void gauge_callback(const std::string& name, const std::string& help,
                      std::function<std::int64_t()> fn);

  Snapshot snapshot() const;

  /// Process-wide gate for wall-clock observability inputs (latency
  /// histograms). Off by default: a run that never enables it reads no
  /// clocks at all, mirroring the engine's phase-timing contract.
  static bool timing_enabled() {
    return timing_.load(std::memory_order_relaxed);
  }
  static void set_timing(bool on) {
    timing_.store(on, std::memory_order_relaxed);
  }

  // Public constructor so tests can exercise a private registry (golden
  // exposition output needs controlled contents); production code uses
  // instance().
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Entry {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::int64_t()> callback;
  };

  Entry& entry_of(const std::string& name, MetricType type);

  static std::atomic<bool> timing_;

  mutable std::mutex mu_;
  // Ordered by name so snapshots (and both exposition formats) are
  // byte-stable without a sort at read time.
  std::map<std::string, Entry> metrics_;
};

/// Monotonic nanoseconds for latency observations. Call sites must be
/// gated on Registry::timing_enabled(); readings feed metrics only, never
/// a transcript. det-ok: clock
std::uint64_t mono_time_ns();

}  // namespace dgr::obs
