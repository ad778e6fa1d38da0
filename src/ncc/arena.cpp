#include "ncc/arena.h"

#include <algorithm>

// Cold paths of the arena subsystem: outbox growth and table sizing.
// Everything per-send stays header-inline (OutArena::append).

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

// --------------------------------------------------------- RoundScratch ----

void RoundScratch::prepare(std::size_t n, unsigned threads) {
  outboxes.resize(threads);
  for (auto& out : outboxes) out.buckets.resize(threads);
  blocks.resize(threads);
  dest_count.resize(n);
  inbox_lo.resize(n);
  inbox_len.resize(n);
  inbox_cur.resize(n);
}

void RoundScratch::ensure_overflow(std::size_t n) {
  if (bitmap_off.size() >= n) return;
  bitmap_off.resize(n);
  ovf_cursor.resize(n);
  bounce_base.resize(n);
  bounce_cursor.resize(n);
  bounced.resize(n);
}

}  // namespace dgr::ncc
