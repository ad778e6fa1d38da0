// Round-engine arenas: the per-worker outbox, the poolable bundle of every
// round-transient buffer a Network owns (RoundScratch), and the
// cross-Network ArenaPool.
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
// RoundScratch + ArenaPool: all of the above is bundled so a Network can
// borrow its round-transient state from a pool (Config::arena_pool) and
// return it at destruction, letting wire arenas and per-phase scratch be
// reused across the 5 realization algorithms of a Runner matrix
// (or across serve cold runs) instead of being re-resized from scratch per
// Network. Reuse is invisible to the simulation: every buffer here is
// either rewritten each round or held to an explicit between-round
// invariant (all-zero counts, length tables zero outside the touched
// lists), and sanitize() restores those invariants at release,
// so transcripts are bit-identical with a pool attached or not — at any
// thread count. The pool is mutex-guarded and bounded (max_free); trim()
// reclaims everything it retains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ncc/ids.h"
#include "ncc/message.h"

namespace dgr::ncc {

/// One worker's outbox: a single flat stream of variable-length wire
/// records, each `2 + size (+ trailer)` 64-bit words (see ncc::wire in
/// message.h). A one-word message costs 24 bytes instead of
/// sizeof(Message) == 48, and appending costs one bounds check and three
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

  void clear() { len = 0; }

  std::uint64_t* append(std::size_t words) {
    if (len + words > cap) [[unlikely]] grow(words);
    std::uint64_t* p = buf.get() + len;
    len += words;
    return p;
  }

  std::size_t footprint_bytes() const;

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
  NodeId dst = kNoNode;
  Message msg;
};

/// Every round-transient buffer of a Network, bundled so the whole set can
/// be borrowed from an ArenaPool and returned at Network destruction. The
/// steady-state datapath performs no allocation: buffers grow to the
/// workload's high-water mark and stay there, and with a pool attached
/// they survive the Network itself.
///
/// Between-round invariants (hold on release to the pool, and therefore on
/// acquire from it): dest_count is all-zero;
/// inbox_len is nonzero only at slots named by inbox_dests; bounced[s] is
/// nonempty only for slots named by bounce_srcs; every list is consumed by
/// the round that reads it. sanitize() restores all of this in
/// O(last round's touched sets).
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
  /// round that actually overflows a receiver. Grow-only no-op once
  /// materialized.
  void ensure_overflow(std::size_t n);

  /// Size the always-touched tables for an n-node, `threads`-worker
  /// Network. Reused scratch keeps every capacity; dense tables resize
  /// (value-initializing any new tail, which the invariants require to be
  /// zero anyway). The lazy overflow tables are only re-extended if a
  /// previous owner already materialized them.
  void prepare(std::size_t n, unsigned threads);

  /// Restore every between-round invariant and drop per-Network state
  /// (wake lists) so the next owner starts clean. O(last touched sets);
  /// capacities are retained — that is the point of pooling.
  void sanitize();

  /// Approximate retained heap footprint (capacity-based; for pool
  /// accounting and the shrink tests).
  std::size_t footprint_bytes() const;

  /// Debug-build invariant probe: dest_count all-zero,
  /// length tables zero outside their lists' scope.
  bool invariants_clean() const;
};

/// A bounded, mutex-guarded pool of RoundScratch bundles. Attach one via
/// Config::arena_pool and every Network constructed with that config
/// borrows its round-transient buffers here instead of allocating fresh —
/// a Runner matrix run or a serve driver reuses one warm bundle across
/// all 5 realization algorithms. Thread-safe; the pool must outlive every
/// Network using it.
class ArenaPool {
 public:
  /// `max_free` bounds how many idle bundles the pool retains; releases
  /// beyond the bound free their scratch immediately, so pool memory is
  /// bounded by max_free x (largest bundle), not by the number of
  /// Networks ever run.
  explicit ArenaPool(std::size_t max_free = 4) : max_free_(max_free) {}
  /// Withdraws this pool's contribution to the process-wide retained-bytes
  /// gauge (obs) along with the idle bundles themselves.
  ~ArenaPool();
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  std::unique_ptr<RoundScratch> acquire();
  void release(std::unique_ptr<RoundScratch> scratch);

  /// Free every idle bundle now (the reclaim knob for long-lived
  /// processes after a huge-n excursion).
  void trim();

  /// Approximate bytes held by idle bundles (capacity accounting).
  std::size_t retained_bytes() const;
  std::size_t free_count() const;

  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served by a pooled bundle
    std::uint64_t dropped = 0;   ///< releases freed because the pool was full
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t max_free_;
  std::vector<std::unique_ptr<RoundScratch>> free_;
  Stats stats_;
  // Bytes this pool has exported to the shared retained-bytes gauge
  // (guarded by mu_); kept so reuse/trim/destruction withdraw exactly what
  // release deposited.
  std::size_t exported_bytes_ = 0;
};

}  // namespace dgr::ncc
