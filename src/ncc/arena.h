// Round-engine arenas: the per-worker outbox and the bundle of every
// round-transient buffer a Network owns (RoundScratch).
//
// Memory contract (the million-node mode): nothing in this file grows
// O(threads x n), and every eagerly-sized table is one of the four slim
// always-touched per-destination indices (dest_count / inbox_lo /
// inbox_len / inbox_cur, 24 bytes per node, constant in the thread
// count). Everything else is O(traffic + touched destinations):
//   - outbox arenas and the inbox arena grow with the words actually sent;
//   - the counting sort keeps no per-worker table: deliver() re-streams the
//     outbox headers into the one shared dest_count index;
//   - the overflow/bounce cursor tables are allocated lazily, on the first
//     round that actually overflows a receiver — a clean huge-n
//     realization never pays for them.
//
// RoundScratch bundles all of the above. Each Network owns one: it is sized
// at construction and freed with the Network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ncc/ids.h"
#include "ncc/message.h"

namespace dgr::ncc {

/// One worker's outbox: a single flat stream of variable-length wire
/// records, each `2 + size (+ trailer)` 64-bit words (see ncc::wire in
/// message.h). A one-word message costs 24 bytes instead of
/// sizeof(Message) == 64, and appending costs one bounds check and three
/// sequential stores. The stream is written and re-read strictly
/// sequentially, so no per-record offsets exist; deliver() walks it with a
/// cursor and copies accepted records verbatim to their final inbox
/// position.
///
/// Cache-line aligned: each worker writes its own arena's len on every
/// send, so neighbouring arenas in RoundScratch::outboxes must not share a
/// line.
struct alignas(64) OutArena {
  std::unique_ptr<std::uint64_t[]> buf;
  std::size_t len = 0;  // words used
  std::size_t cap = 0;  // words allocated
  // Slots whose body called Ctx::wake() this round. Ascending by slot: a
  // worker walks its slice in slot order, so per-arena lists concatenate
  // sorted across the pool's contiguous slices.
  std::vector<Slot> wake;
  // Max per-node sends this worker observed this round (NetStats feed;
  // replaces the old O(n) per-round scan of a sends-per-slot array).
  int max_send = 0;
  // IdMap lookups this worker's round bodies made (NetStats::id_resolutions).
  std::uint64_t id_resolutions = 0;

  void clear() { len = 0; }

  std::uint64_t* append(std::size_t words) {
    if (len + words > cap) [[unlikely]] grow(words);
    std::uint64_t* p = buf.get() + len;
    len += words;
    return p;
  }

 private:
  void grow(std::size_t need);  // cold: doubles capacity
};

/// Reference to a bounced wire record in a worker outbox arena: the bounce
/// spill's element type.
struct EncodedRef {
  const std::uint64_t* enc;
  Slot src;
};

/// A message returned to its sender because the receiver was
/// oversubscribed.
struct Bounced {
  NodeRef dst;
  Message msg;
};

/// Every round-transient buffer of a Network. The steady-state datapath
/// performs no allocation: buffers grow to the workload's high-water mark
/// and stay there until the Network is destroyed.
///
/// Between-round invariants: dest_count is all-zero; inbox_len is nonzero
/// only at slots named by inbox_dests; bounced[s] is nonempty only for
/// slots named by bounce_srcs; every list is consumed by the round that
/// reads it.
struct RoundScratch {
  // --- per-worker arenas (resized to the Network's thread count) --------
  std::vector<OutArena> outboxes;

  // --- always-touched per-destination indices (dense, 24 B/node, x1) ----
  // Kept dense deliberately: deliver() and make_inbox_view index them per
  // touched slot on the hot path, and at 24 bytes per node they are an
  // order of magnitude slimmer than the model state itself (knowledge
  // tables, RNG streams). Zeroing is sparse via the touched lists.
  std::vector<std::uint64_t> dest_count;  // packed counting-sort histogram
  std::vector<std::size_t> inbox_lo;      // per-node inbox word offset
  std::vector<std::uint32_t> inbox_len;   // per-node accepted messages
  std::vector<std::uint32_t> inbox_cur;   // per-node write cursors (kOvfBit)

  // --- O(traffic) round lists ------------------------------------------
  std::vector<Slot> touched_dests;  // dests with dest_count > 0
  std::vector<Slot> inbox_dests;    // slots with inbox_len > 0 (last round)
  std::vector<Slot> bounce_srcs;    // slots with bounces (last round)

  /// The inbox arena: accepted wire records copied verbatim, dest-major —
  /// each destination's records sit contiguously in arrival order, at
  /// variable stride (wire::record_words).
  std::unique_ptr<std::uint64_t[]> inbox_words;
  std::size_t inbox_cap = 0;  // words allocated

  // --- oversubscription bookkeeping (lazy: first overflowing round) -----
  // Only entries for overflowing destinations are (re)initialized each
  // round; the O(n) cursor tables exist only once a receiver has actually
  // overflowed (or bounced) on this scratch.
  std::vector<Slot> ovf_dests;                  // this round's overflowers
  std::vector<std::uint8_t> ovf_bitmap;         // accept flags by arrival
  std::vector<std::uint32_t> bitmap_off;        // dest -> ovf_bitmap base
  std::vector<const std::uint8_t*> ovf_cursor;  // dest -> next accept flag
  std::vector<std::uint32_t> bounce_base;       // dest -> bounce_refs base
  std::vector<std::uint32_t> bounce_cursor;     // dest -> bounce_refs cursor
  std::unique_ptr<EncodedRef[]> bounce_refs;    // bounced msgs, dest-major
  std::size_t bounce_cap = 0;
  std::vector<std::uint32_t> overflow_idx;      // Fisher-Yates scratch
  std::vector<std::vector<Bounced>> bounced;    // per source slot (lazy)

  /// Materialize the oversubscription cursor tables; called by the first
  /// round that actually overflows a receiver. No-op once materialized.
  void ensure_overflow(std::size_t n);

  /// Size the always-touched tables for an n-node, `threads`-worker
  /// Network. Called once, on a fresh bundle.
  void prepare(std::size_t n, unsigned threads);
};

}  // namespace dgr::ncc
