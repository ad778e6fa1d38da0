// Round-engine arenas: the per-worker outbox and the bundle of every
// round-transient buffer a Network owns (RoundScratch).
//
// Memory contract (the million-node mode): nothing in this file grows
// O(threads x n), and every eagerly-sized table is one of the four slim
// always-touched per-destination indices (dest_count / inbox_lo /
// inbox_len / inbox_cur, 24 bytes per node, constant in the thread
// count). Everything else is O(traffic + touched destinations):
//   - outbox arenas and the inbox arena grow with the words actually sent;
//   - the counting sort keeps no per-worker table: every delivery block
//     counts into its own slot range of the one shared dest_count index;
//   - a block-parallel round's buckets hold one 64-bit entry per record
//     (threads x threads lists whose total length is the round's message
//     count), and each delivery block's touched and overflow lists name
//     only destinations that received something;
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

/// One (outbox arena, delivery block) bucket: one packed 64-bit entry per
/// record of the arena addressed to the block, in stream order. An entry
/// carries the record's word offset in the arena, its length in words and
/// its destination relative to the block's first slot, so the counting
/// pass reads only the bucket and the record itself is fetched once, by
/// the task that places it. Cache-line aligned: the buckets of different
/// arenas are filled by different body tasks at the same time and must not
/// share a line.
struct alignas(64) Bucket {
  std::vector<std::uint64_t> recs;

  /// Offsets get 29 bits: a round whose outboxes reach 2^29 words (4 GiB)
  /// is delivered serially, unbucketed.
  static constexpr std::size_t kMaxArenaWords = std::size_t{1} << 29;
  static_assert(wire::kHeaderWords + 2 * kMaxWords < 16,
                "record lengths get 4 bits");
  /// Block-relative destinations get 31 bits: blocks are at most
  /// ceil(n / 2) slots wide.
  static std::uint64_t entry(std::size_t off, std::size_t words, Slot rel) {
    return (static_cast<std::uint64_t>(off) << 35) |
           (static_cast<std::uint64_t>(words) << 31) | rel;
  }
  static std::size_t offset(std::uint64_t e) {
    return static_cast<std::size_t>(e >> 35);
  }
  static std::size_t words(std::uint64_t e) {
    return static_cast<std::size_t>((e >> 31) & 15u);
  }
  static Slot rel_dst(std::uint64_t e) {
    return static_cast<Slot>(e & 0x7fffffffu);
  }
};

/// One worker's outbox: a single flat stream of variable-length wire
/// records, each `2 + size (+ trailer)` 64-bit words (see ncc::wire in
/// message.h). A one-word message costs 24 bytes instead of
/// sizeof(Message) == 64, and appending costs one bounds check and three
/// sequential stores. Ctx::send keeps no per-record index: a serial
/// delivery walks the stream with a cursor, and a block-parallel one reads
/// the bucket entries the arena's own body task wrote, by destination
/// block, after its slice finished (`buckets`). Either way accepted
/// records are copied verbatim to their final inbox position.
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
  // Block-parallel rounds only: buckets[b] lists, in stream order, every
  // record addressed to delivery block b. One bucket per block (the
  // Network's thread count), each O(this arena's traffic).
  std::vector<Bucket> buckets;

  void clear() {
    len = 0;
    for (auto& b : buckets) b.recs.clear();
  }

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

/// One delivery block's round state. A block is a fixed contiguous
/// destination-slot range — block b of a threads-wide Network covers
/// [b*ceil(n/threads), (b+1)*ceil(n/threads)) clipped to n — that one task
/// counts and another lays out, places and learns; a serial round is one
/// block over [0, n). Cache-line aligned: each task writes its own block.
struct alignas(64) DeliverBlock {
  std::vector<Slot> touched;  // destinations counted this round
  std::vector<Slot> ovf;      // its oversubscribed destinations, ascending
  std::size_t words = 0;      // inbox words counted, incl. overflow slack
  std::size_t msgs = 0;       // messages counted (accepted + bounced)
  std::uint64_t max_recv = 0;
  // Set by the serial prefix over the blocks: the block's inbox arena
  // offset and the start of its extent in RoundScratch::touched_dests.
  std::size_t base = 0;
  std::size_t touched_off = 0;
  // Set by the prefix of a block-parallel round: the block holds far more
  // than its share of the round's inbox words, so its learn pass runs as
  // chunks of a separate job over every worker, not on its place task.
  bool spread_learn = false;
  // Phase timing of the place-and-learn task (only while timing is on).
  std::uint64_t place_ns = 0;
  std::uint64_t learn_ns = 0;
};

/// Every round-transient buffer of a Network. The steady-state datapath
/// performs no allocation: buffers grow to the workload's high-water mark
/// and stay there until the Network is destroyed.
///
/// Between-round invariants: dest_count is all-zero; inbox_len is nonzero
/// only at slots named by inbox_dests; bounced[s] is nonempty only for
/// slots named by bounce_srcs; every touched list is empty; every list is
/// consumed by the round that reads it.
struct RoundScratch {
  // --- per-worker arenas and delivery blocks (one each per thread) ------
  std::vector<OutArena> outboxes;
  std::vector<DeliverBlock> blocks;

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
