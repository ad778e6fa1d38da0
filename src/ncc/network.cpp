#include "ncc/network.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <numeric>

#include "ncc/arena.h"
#include "ncc/executor.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dgr::ncc {

namespace {

// The wire-record codec lives in ncc::wire (message.h); deliver() below
// walks records with wire::record_words cursors exactly as Ctx::send wrote
// them, and the inbox arena stores accepted records verbatim.

/// High bit of an inbox cursor: the destination is oversubscribed this
/// round, so acceptance consults its overflow-bitmap cursor.
constexpr std::uint32_t kOvfBit = 0x80000000u;

// Packed per-destination accounting (RoundScratch::dest_count): message
// count in the low 32 bits, record words in the high 32. One add maintains
// both.
inline std::uint64_t pack_one(std::size_t rec_words) {
  return std::uint64_t{1} | (static_cast<std::uint64_t>(rec_words) << 32);
}
inline std::size_t pk_count(std::uint64_t packed) {
  return static_cast<std::size_t>(static_cast<std::uint32_t>(packed));
}
inline std::size_t pk_words(std::uint64_t packed) {
  return static_cast<std::size_t>(packed >> 32);
}

/// Ranges (a delivery block, or the whole slot space) touching at least
/// 1/kDenseSweep of their slots switch from list-driven scatters (sort the
/// touched list, zero entries one by one) to sequential sweeps of the range
/// — at that density the streaming pass is cheaper than k log k sorting and
/// cache-random stores.
constexpr std::size_t kDenseSweep = 16;

/// Monotonic timestamp for the per-phase round breakdown (ncc/stats.h).
/// Only called while phase timing is on (a telemetry sink attached, or
/// Network::set_phase_timing); detached rounds never read a clock. The
/// reading feeds telemetry only, never a transcript. det-ok: clock
inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Delivery parallelism grains. Below these the executor dispatch overhead
/// dwarfs the pass itself, so the serial path runs: a round's delivery goes
/// block-parallel from ~2048 outbox words, the overflow acceptance
/// pre-draw from ~512 oversubscribed arrivals.
constexpr std::size_t kParallelDeliverWords = 2048;
constexpr std::size_t kParallelOvfArrivals = 512;

/// A block-parallel round whose block holds at least twice its share of
/// the round's inbox words, and at least this many, spreads that block's
/// learn pass over every worker in one more job instead of running it on
/// the block's own task: a fan-in concentrated in one block still learns
/// in parallel. Below ~2^18 words the extra dispatch, and the reads of
/// inbox words another core just placed, cost as much as they save (a
/// one-block NCC0 fan-in at threads = 4 on a 4-vCPU host: a wash from 100k
/// to 300k words, learn 0.68x at 1.1M words and 0.32x at 2.3M).
constexpr std::size_t kSpreadLearnWords = std::size_t{1} << 18;

/// Grow-by-doubling for the round-scratch buffers whose contents are fully
/// rewritten every round — old contents are deliberately discarded.
template <typename T>
void grow_discard(std::unique_ptr<T[]>& buf, std::size_t& cap,
                  std::size_t need, std::size_t floor) {
  std::size_t next = cap == 0 ? floor : cap;
  while (next < need) next *= 2;
  buf = std::make_unique<T[]>(next);
  cap = next;
}

/// dst = dst ∪ src for sorted unique slot lists; no-ops skip the copy, so
/// the common case (one nonempty contributor) costs a single assign.
void sorted_union_into(std::vector<Slot>& dst, const std::vector<Slot>& src,
                       std::vector<Slot>& scratch) {
  if (src.empty()) return;
  if (dst.empty()) {
    dst = src;
    return;
  }
  scratch.clear();
  std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                 std::back_inserter(scratch));
  dst.swap(scratch);
}

/// Walks `len` contiguous inbox records from `p`, calling learn(slot) for
/// each record's sender and every slot in its forwarded-ID trailer.
template <typename Learn>
void learn_records(const std::uint64_t* p, std::uint32_t len, Learn&& learn) {
  for (std::uint32_t i = 0; i < len; ++i) {
    learn(wire::src(p));
    const std::size_t nw = wire::size(p);
    const std::size_t tw = wire::trailer_words(wire::id_mask(p));
    const std::uint64_t* tp = p + wire::kHeaderWords + nw;
    for (std::size_t j = 0; j < tw; ++j) learn(static_cast<Slot>(tp[j]));
    p = tp + tw;
  }
}

}  // namespace

// ------------------------------------------------------------ Network ----

Network::Network(std::size_t n, Config cfg) : n_(n), cfg_(cfg) {
  DGR_CHECK_MSG(n >= 1, "network needs at least one node");
  capacity_ = std::max(cfg_.min_capacity,
                       cfg_.capacity_factor * ceil_log2(std::max<std::size_t>(n, 2)));
  threads_ = std::min<unsigned>(std::max(1u, cfg_.threads),
                                static_cast<unsigned>(n_));
  // Single-threaded networks never touch the executor at all; everyone
  // else registers up front so the lease width (the Config::threads cap)
  // is fixed for the network's lifetime.
  if (threads_ > 1) lease_ = Executor::instance().lease(threads_);

  Rng seeder(hash_mix(cfg_.seed, 0xA11CE5ULL));

  // Assign unique IDs.
  ids_.resize(n);
  if (cfg_.random_ids) {
    // Draw from [1, max(16 n^2, 1024)]: collisions are rare; re-draw on hit.
    const std::uint64_t space =
        std::max<std::uint64_t>(16ULL * n * n, 1024ULL);
    std::vector<NodeId> drawn;
    drawn.reserve(n);
    for (std::size_t i = 0; i < n; ++i) drawn.push_back(1 + seeder.below(space));
    std::sort(drawn.begin(), drawn.end());
    bool dup = std::adjacent_find(drawn.begin(), drawn.end()) != drawn.end();
    while (dup) {
      for (std::size_t i = 0; i + 1 < n; ++i)
        if (drawn[i] == drawn[i + 1]) drawn[i + 1] = 1 + seeder.below(space);
      std::sort(drawn.begin(), drawn.end());
      dup = std::adjacent_find(drawn.begin(), drawn.end()) != drawn.end();
    }
    // Scatter sorted IDs over slots so slot order carries no information.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    seeder.shuffle(perm);
    for (std::size_t i = 0; i < n; ++i) ids_[perm[i]] = drawn[i];
    sorted_ids_ = std::move(drawn);  // already ascending and duplicate-free
  } else {
    for (std::size_t i = 0; i < n; ++i) ids_[i] = static_cast<NodeId>(i + 1);
    sorted_ids_ = ids_;
  }

  id_map_.build(ids_);

  // Initial knowledge graph Gk.
  path_order_.resize(n);
  std::iota(path_order_.begin(), path_order_.end(), Slot{0});
  if (cfg_.shuffle_path) seeder.shuffle(path_order_);

  // NCC1 nodes know everything from the start: no table is ever built, and
  // the path-hint and own-ID learns below are no-ops.
  know_.resize(n);
  const bool clique = cfg_.initial == InitialKnowledge::kClique;
  for (auto& k : know_) {
    if (clique) {
      k.set_all();
    } else {
      k.init(n);
    }
  }
  initial_succ_.assign(n, kNoSlot);
  // The path hints exist in both variants: NCC1 knowledge strictly contains
  // NCC0's, so NCC0 algorithms run unchanged on an NCC1 network (paper §2).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Slot u = path_order_[i];
    const Slot v = path_order_[i + 1];
    initial_succ_[u] = v;
    know_[u].learn_slot(v);
  }
  // Every node knows its own ID.
  for (Slot s = 0; s < n; ++s) know_[s].learn_slot(s);

  // Round-transient buffers: prepare() sizes only the slim always-touched
  // per-destination indices (24 B/node, independent of the thread count);
  // the per-worker outboxes grow with traffic and the overflow tables stay
  // absent until a round actually needs them, so constructing a
  // million-node Network costs O(n) for the model state (IDs, knowledge,
  // RNG streams) and O(1) per worker for the datapath.
  scr_->prepare(n_, threads_);
  worker_span_.resize(threads_);
  block_slots_ = static_cast<Slot>((n_ + threads_ - 1) / threads_);

  node_rng_.reserve(n);
  for (Slot s = 0; s < n; ++s)
    node_rng_.push_back(Rng(hash_mix(cfg_.seed, 0x0DE5EED5ULL, s)));

  crashed_.assign(n, 0);
}

Slot Network::slot_of(NodeId id) const {
  const Slot s = id_map_.find(id);
  DGR_CHECK_MSG(s != kNoSlot, "unknown NodeId " << id);
  return s;
}

std::size_t Network::max_knowledge() const {
  std::size_t best = 0;
  for (const auto& k : know_) best = std::max(best, k.size(n_));
  return best;
}

std::size_t Network::total_knowledge() const {
  std::size_t total = 0;
  for (const auto& k : know_) total += k.size(n_);
  return total;
}

void Network::send_fail(Slot s, Slot dst, NodeId to, const std::uint64_t* rec,
                        int sends) const {
  // Re-run the checks in their documented order so the thrown diagnostic is
  // the same one the checks would have produced inline.
  Message m;
  wire::decode(rec, kNoNode, false, m);
  if (dst != kNoSlot) to = ids_[dst];
  DGR_CHECK_MSG(to != kNoNode, "send to null ID");
  const Knowledge& kn = know_[s];
  if (kn.knows_all()) {
    DGR_CHECK_MSG(dst != kNoSlot, "unknown NodeId " << to);
  } else {
    DGR_CHECK_MSG(dst != kNoSlot && kn.knows_slot(dst),
                  "node " << ids_[s] << " does not know ID " << to
                          << " (KT0 violation)");
  }
  for (std::size_t w = 0; w < m.size; ++w) {
    if (m.id_mask & (1u << w)) {
      DGR_CHECK_MSG(node_knows(s, m.words[w]),
                    "node " << ids_[s] << " forwards unknown ID "
                            << m.words[w]);
    }
  }
  DGR_CHECK_MSG(sends < capacity_,
                "send capacity exceeded at node " << ids_[s]);
  DGR_CHECK_MSG(false, "unreachable: send_fail called with passing checks");
  std::abort();  // silence [[noreturn]] warnings; DGR_CHECK above throws
}

NodeRef Ctx::ref_of(NodeId id) {
  const Slot s = find(id);
  const Knowledge& kn = net_.know_[slot_];
  DGR_CHECK_MSG(id != kNoNode, "handle of null ID");
  if (kn.knows_all()) {
    DGR_CHECK_MSG(s != kNoSlot, "unknown NodeId " << id);
  } else {
    DGR_CHECK_MSG(s != kNoSlot && kn.knows_slot(s),
                  "node " << net_.ids_[slot_] << " does not know ID " << id
                          << " (KT0 violation)");
  }
  return NodeRef(s);
}

void Network::run_slots(std::size_t lo, std::size_t hi, unsigned arena,
                        void* body, RoundThunk thunk) {
  auto* out = &scr_->outboxes[arena];
  const Slot* list = round_list_;  // null => dense: index i IS the slot
  for (std::size_t i = lo; i < hi; ++i) {
    const Slot s = list ? list[i] : static_cast<Slot>(i);
    if (crashed_[s]) continue;
    Ctx ctx(*this, s, out);
    thunk(body, ctx);
    // The send budget and lookup count are tracked in the (register-
    // resident) Ctx; fold them into the arena's max_send and total.
    if (ctx.sends_ > out->max_send) out->max_send = ctx.sends_;
    out->id_resolutions += ctx.resolutions_;
  }
}

void Network::round_raw(void* body, RoundThunk thunk) {
  round_list_ = nullptr;
  execute_round(n_, body, thunk);
}

void Network::round_active_raw(void* body, RoundThunk thunk) {
  ensure_frontier();
  flush_active();
  // The frontier becomes round-owned: deliver() rebuilds active_ for the
  // next round while the workers read this one's list.
  run_list_.swap(active_);
  active_.clear();
  if (cfg_.sparse_rounds) {
    round_list_ = run_list_.data();
    execute_round(run_list_.size(), body, thunk);
    round_list_ = nullptr;
  } else {
    // Dense reference mode: bodies are inactive-silent by contract, so
    // dispatching every slot must yield a bit-identical transcript.
    round_list_ = nullptr;
    execute_round(n_, body, thunk);
  }
}

void Network::ensure_frontier() {
  if (frontier_track_) return;
  frontier_track_ = true;
  std::sort(scr_->bounce_srcs.begin(), scr_->bounce_srcs.end());
  flush_active();
  sorted_union_into(active_, scr_->inbox_dests, active_scratch_);
  sorted_union_into(active_, scr_->bounce_srcs, active_scratch_);
}

void Network::flush_active() {
  if (!active_dirty_) return;
  if (!std::is_sorted(active_.begin(), active_.end()))
    std::sort(active_.begin(), active_.end());
  active_.erase(std::unique(active_.begin(), active_.end()), active_.end());
  active_dirty_ = false;
}

// The per-worker-grain below which a sparse round skips the executor
// dispatch and runs on the calling thread. Arena placement does not affect the
// transcript (slices stay in slot order either way), so this is a pure
// scheduling choice.
namespace {
constexpr std::size_t kSparseParallelGrain = 2048;
}  // namespace

void Network::execute_round(std::size_t items, void* body, RoundThunk thunk) {
  DGR_CHECK_MSG(stats_.rounds < cfg_.max_rounds,
                "round budget exhausted (" << cfg_.max_rounds << ")");
  RoundScratch& sc = *scr_;

  // Reset per-round arena state. The touched lists are normally empty here
  // (deliver() consumed them); after a round aborted by a body or
  // strict-mode exception they heal the partial state, keeping the
  // between-rounds invariants (dest_count and inbox_len all zero).
  for (auto& out : sc.outboxes) {
    out.clear();
    out.max_send = 0;
    out.id_resolutions = 0;
    out.wake.clear();
  }
  const auto heal = [&sc](std::vector<Slot>& touched) {
    for (const Slot d : touched) {
      sc.dest_count[d] = 0;
      sc.inbox_len[d] = 0;
    }
    touched.clear();
  };
  heal(sc.touched_dests);
  for (auto& blk : sc.blocks) heal(blk.touched);

  // Run the per-node body. Nodes are independent by contract, so slots can
  // be processed in parallel; all randomness is per-slot, so the transcript
  // is identical for any thread count. Tiny active sets skip the barrier.
  sparse_dispatch_ = round_list_ != nullptr;
  // Per-phase timing (RoundSample::phase_ns / NetStats::phase_ns): one
  // cached-flag branch per phase boundary when detached, no clock reads.
  const bool timed = timing_on();
  if (!timed) round_ns_ = PhaseNanos{};
  const std::uint64_t t_body = timed ? mono_ns() : 0;
  {
    // in_body_ guards the referee-only knobs (set_drop_probability)
    // against mid-body flips: it must read true exactly while bodies may
    // run, and must reset on every exit path including body exceptions —
    // hence RAII, not manual clears. The set happens-before the job
    // submission (executor mutex) and the reset happens-after run()
    // returns, which waits for every task.
    const struct BodyScope {
      bool& flag;
      explicit BodyScope(bool& f) : flag(f) { flag = true; }
      ~BodyScope() { flag = false; }
    } body_scope(in_body_);
    const bool parallel =
        threads_ > 1 && (!round_list_ || items >= kSparseParallelGrain);
    bucketed_ = parallel;
    if (!parallel) {
      run_slots(0, items, 0, body, thunk);
    } else {
      // One executor task per contiguous slice. Task index t maps to
      // worker_span_[t] and outbox arena t, so WHICH thread claims a task
      // never affects the transcript (arenas still concatenate in global
      // slot order); see deliver(). run() rethrows the first body
      // exception after all tasks drain — same contract the old
      // per-Network pool had.
      const std::size_t chunk = (items + threads_ - 1) / threads_;
      for (unsigned t = 0; t < threads_; ++t) {
        worker_span_[t] = {std::min<std::size_t>(t * chunk, items),
                           std::min<std::size_t>((t + 1) * chunk, items)};
      }
      struct RoundJob {
        Network* net;
        void* body;
        RoundThunk thunk;
      } job{this, body, thunk};
      Executor::instance().run(
          lease_, threads_, &job, [](void* c, std::size_t t) {
            auto* rj = static_cast<RoundJob*>(c);
            const auto a = static_cast<unsigned>(t);
            rj->net->run_slots(rj->net->worker_span_[t].first,
                               rj->net->worker_span_[t].second, a, rj->body,
                               rj->thunk);
            // Step 1 of a block-parallel delivery, while the arena is
            // still in this task's cache (see deliver()).
            rj->net->bucket_arena(a);
          });
    }
  }
  if (timed) round_ns_.body = mono_ns() - t_body;

  deliver();
  ++stats_.rounds;
}

// The delivery pipeline. RNG-stream contract (the transcript): the per-round
// delivery stream is consumed first by per-message drop draws in global
// source-slot order, then by the oversubscription Fisher-Yates draws in
// destination-slot order — exactly the order the seed engine used, so a
// fixed seed reproduces the seed engine's outcomes regardless of the thread
// count or of which internal path below runs.
//
// Destinations are split into delivery blocks (DeliverBlock, arena.h):
// fixed contiguous slot ranges, one per worker, set by n and the thread
// count alone. A serial round — a single-threaded Network, or one whose
// outboxes hold under kParallelDeliverWords words — is one block over
// [0, n) fed straight from the arena streams, its drop draws made inside
// the counting walk. A block-parallel round runs every pass per block
// except the two that consume the RNG stream in a set order (the drop
// filter, a serial pass of its own there, and the overflow pre-draw's
// snapshot scan):
//   1. each parallel body task buckets its own arena's records by
//      destination block (bucket_arena; a serial body's arena is bucketed
//      here), one packed entry per record;
//   2. one job counts each block from its buckets, read in arena order:
//      its dest_count entries, its touched list, its word and message
//      totals and its overflow list; a serial prefix over the blocks,
//      O(blocks) plus O(oversubscribed destinations), then runs the
//      strict-mode check and the kOvfBit guard, assigns each block its
//      inbox arena offset and reserves the overflow bookkeeping;
//   3. one job per block orders and lays out the block (sorted, or swept
//      inside the block), places its records from the same buckets in arena
//      order — so each destination still receives its messages in global
//      source order — re-zeroes its counts and runs the learn pass over it
//      (place_block). A block holding at least twice its share of a large
//      round's inbox words leaves its learn pass to one more job that
//      splits it over every worker by inbox words (learn_spread), so a
//      fan-in into one block still learns in parallel.
// Every destination's counts, cursors, inbox slice and knowledge table have
// exactly one writing task, so no synchronization is needed beyond the job
// barriers, and the transcript is bit-identical at any thread count.
//
// Sparse datapath: every pass walks lists that name exactly the slots
// involved this round (touched destinations, bounce sources, wakes), so a
// round's delivery cost is O(messages + slots touched), independent of n.
// A block whose touched count reaches 1/kDenseSweep of its range sweeps the
// range instead, which yields the same ascending order.
void Network::deliver() {
  RoundScratch& sc = *scr_;
  Rng delivery_rng(hash_mix(cfg_.seed, 0xDE11FE12ULL, stats_.rounds));
  const bool timed = timing_on();
  std::uint64_t tmark = timed ? mono_ns() : 0;

  // The inbox arena is about to be repacked: every InboxView handed out for
  // the finished round is now stale (debug builds diagnose dereferences).
  ++inbox_gen_;

  for (const Slot s : sc.bounce_srcs) sc.bounced[s].clear();
  sc.bounce_srcs.clear();

  const bool trailered = !is_clique();  // records carry ID-slot trailers
  std::uint64_t round_max_send = 0;
  std::size_t out_words = 0;
  for (const auto& out : sc.outboxes) {
    round_max_send = std::max<std::uint64_t>(
        round_max_send, static_cast<std::uint64_t>(out.max_send));
    stats_.id_resolutions += out.id_resolutions;
    out_words += out.len;
  }
  stats_.max_send_in_round =
      std::max(stats_.max_send_in_round, round_max_send);

  const bool par = threads_ > 1 && out_words >= kParallelDeliverWords &&
                   out_words < Bucket::kMaxArenaWords;
  const std::size_t nblocks = par ? threads_ : 1;
  if (par && !bucketed_) bucket_arena(0);  // the body ran serially, in arena 0

  // Link loss and crashed destinations: the drop draws walk every record
  // in global source-slot order, consuming the delivery stream exactly as
  // the serial seed engine did, and tombstone the dropped records, which
  // every later pass skips. A serial round draws them inside its counting
  // walk; a block-parallel round runs them as one serial pass before the
  // per-block count. A reliable network with no crash draws nothing.
  const bool filter = cfg_.drop_probability > 0.0 || crashed_n_ != 0;

  // Count: one block from the arena streams, or every block from its
  // buckets (count_block).
  const auto cap = static_cast<std::size_t>(capacity_);
  std::uint64_t dropped = 0;
  if (!par) {
    dropped = count_block(0, 0, static_cast<Slot>(n_), /*direct=*/true,
                          filter, trailered, delivery_rng);
  } else {
    if (filter) dropped = drop_pass(delivery_rng, trailered);
    Executor::instance().parallel_for(lease_, nblocks, [&](std::size_t b) {
      count_block(b, block_lo(b), block_lo(b + 1), /*direct=*/false, filter,
                  trailered, delivery_rng);
    });
  }
  sc.inbox_dests.clear();

  // The serial prefix over the blocks, in slot order: the strict-mode
  // check, the kOvfBit guard, each block's inbox arena offset and its
  // extent in the round's touched list, and the totals.
  sc.ovf_dests.clear();
  sc.ovf_bitmap.clear();
  std::size_t layout_words = 0;   // inbox arena extent, incl. overflow slack
  std::size_t counted = 0;        // accepted + bounced messages
  std::size_t touched_total = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    DeliverBlock& blk = sc.blocks[b];
    if (!blk.ovf.empty()) {
      const Slot d = blk.ovf.front();
      DGR_CHECK_MSG(cfg_.overflow == OverflowPolicy::kBounce,
                    "receive capacity exceeded at node "
                        << ids_[d] << " (" << pk_count(sc.dest_count[d])
                        << " > " << cap << ") in strict mode");
    }
    // kOvfBit guard: the word cursor lives in the low 31 bits of inbox_cur
    // and bit 31 is the oversubscription flag. Reject the round BEFORE any
    // cursor is stamped whose arithmetic could reach the flag bit, so a
    // per-destination count near the flag can never alias it (placement
    // advances a cursor by its destination's words at most, which the
    // extent already covers).
    DGR_CHECK_MSG(layout_words + blk.words < kOvfBit,
                  "round too large for 32-bit delivery cursors ("
                      << layout_words + blk.words
                      << " inbox words would reach the "
                      << "kOvfBit oversubscription flag)");
    blk.base = layout_words;
    blk.touched_off = touched_total;
    blk.spread_learn = false;
    layout_words += blk.words;
    counted += blk.msgs;
    touched_total += blk.touched.size();
    sc.ovf_dests.insert(sc.ovf_dests.end(), blk.ovf.begin(), blk.ovf.end());
  }
  // Overflow bookkeeping, in destination-slot order: each oversubscribed
  // destination reserves its acceptance-bitmap region (one flag per
  // arrival) and its run of bounce references. The first overflow on this
  // scratch materializes the O(n) cursor tables; a run that never
  // oversubscribes a receiver never allocates them.
  std::size_t bounce_total = 0;
  if (!sc.ovf_dests.empty()) {
    sc.ensure_overflow(n_);
    for (const Slot d : sc.ovf_dests) {
      const std::size_t m = pk_count(sc.dest_count[d]);
      sc.bitmap_off[d] = static_cast<std::uint32_t>(sc.ovf_bitmap.size());
      sc.ovf_bitmap.resize(sc.ovf_bitmap.size() + m);  // value-initializes
      sc.bounce_base[d] = static_cast<std::uint32_t>(bounce_total);
      sc.bounce_cursor[d] = static_cast<std::uint32_t>(bounce_total);
      bounce_total += m - cap;
    }
    // The bitmap buffer has its final size now; plant the per-destination
    // accept-flag cursors the placement pass consumes in arrival order.
    for (const Slot d : sc.ovf_dests)
      sc.ovf_cursor[d] = sc.ovf_bitmap.data() + sc.bitmap_off[d];
  }
  // bounce_refs cursors are 32-bit message indices.
  DGR_CHECK_MSG(bounce_total < kOvfBit,
                "round too large for 32-bit delivery cursors ("
                    << bounce_total << " bounced)");
  // Past every check: the touched lists may leave their blocks (a throw
  // above leaves them there for the next round's cleanup).
  sc.touched_dests.resize(touched_total);
  // A skewed block's learn pass leaves its place task for the spread job
  // after placement (learn_spread).
  std::size_t spread_blocks = 0;
  if (par && trailered) {
    for (std::size_t b = 0; b < nblocks; ++b) {
      DeliverBlock& blk = sc.blocks[b];
      blk.spread_learn = blk.words >= kSpreadLearnWords &&
                         blk.words * nblocks >= 2 * layout_words;
      spread_blocks += blk.spread_learn ? 1 : 0;
    }
  }
  const std::size_t accept_msgs = counted - bounce_total;
  // Every sent message was dropped, accepted or bounced.
  const std::uint64_t sent = dropped + counted;
  stats_.messages_sent += sent;
  stats_.messages_dropped += dropped;

  if (sc.bounce_cap < bounce_total)
    grow_discard(sc.bounce_refs, sc.bounce_cap, bounce_total, 256);
  if (sc.inbox_cap < layout_words)
    grow_discard(sc.inbox_words, sc.inbox_cap, layout_words, 2048);
  if (timed) {
    round_ns_.sort = mono_ns() - tmark;
    tmark = mono_ns();
  }

  // Overflow-acceptance pre-draw (the "rng" phase): one partial
  // Fisher-Yates per oversubscribed destination, in destination-slot order
  // — the same draws, in the same stream positions, the seed engine made
  // inline during layout. Small rounds draw serially. Large rounds
  // snapshot the stream per destination with a serial prefix scan that
  // advances delivery_rng through exactly the draw sequence the serial
  // path would consume (below() rejects and redraws, so the raw-word count
  // is data-dependent — the skip-ahead must execute the draw arithmetic,
  // not jump), then replay the snapshots on worker tasks over contiguous
  // destination ranges with disjoint bitmap regions. Bit-identical at any
  // thread count by construction.
  if (!sc.ovf_dests.empty()) {
    const std::size_t ovf_n = sc.ovf_dests.size();
    const bool par_rng = threads_ > 1 && ovf_n > 1 &&
                         sc.ovf_bitmap.size() >= kParallelOvfArrivals;
    if (!par_rng) {
      for (const Slot d : sc.ovf_dests)
        draw_overflow_bitmap(d, delivery_rng, sc.overflow_idx);
    } else {
      ovf_rng_.clear();
      for (const Slot d : sc.ovf_dests) {
        ovf_rng_.push_back(delivery_rng);
        const std::size_t m = pk_count(sc.dest_count[d]);
        for (std::size_t i = 0; i < cap; ++i) delivery_rng.below(m - i);
      }
      // Contiguous destination ranges of ~equal arrival totals (the draw
      // and the bitmap fill are O(arrivals)); one range per executor task.
      const auto tasks = std::min<std::size_t>(threads_, ovf_n);
      const std::size_t total = sc.ovf_bitmap.size();
      ovf_part_.assign(tasks + 1, ovf_n);
      ovf_part_[0] = 0;
      std::size_t acc = 0;
      for (std::size_t i = 0, t = 1; i < ovf_n && t < tasks; ++i) {
        acc += pk_count(sc.dest_count[sc.ovf_dests[i]]);
        while (t < tasks && acc * tasks >= t * total) ovf_part_[t++] = i + 1;
      }
      if (ovf_idx_w_.size() < tasks) ovf_idx_w_.resize(tasks);
      Executor::instance().parallel_for(lease_, tasks, [&](std::size_t tk) {
        std::vector<std::uint32_t>& idx = ovf_idx_w_[tk];
        for (std::size_t i = ovf_part_[tk]; i < ovf_part_[tk + 1]; ++i) {
          Rng r = ovf_rng_[i];
          draw_overflow_bitmap(sc.ovf_dests[i], r, idx);
        }
      });
    }
  }
  if (timed) {
    round_ns_.rng = mono_ns() - tmark;
    tmark = mono_ns();
  }

  // Placement and the learn pass, per block (place_block): one task over
  // [0, n) streaming the arenas, or one executor task per block reading its
  // buckets.
  if (!par) {
    place_block(0, 0, static_cast<Slot>(n_), /*direct=*/true, trailered,
                timed);
  } else {
    Executor::instance().parallel_for(lease_, nblocks, [&](std::size_t b) {
      place_block(b, block_lo(b), block_lo(b + 1), /*direct=*/false,
                  trailered, timed);
    });
  }
  const std::uint64_t t_blocks = timed ? mono_ns() : 0;
  if (spread_blocks != 0) {
    // nblocks chunks of equal inbox words per skewed block, in slot order.
    Executor::instance().parallel_for(
        lease_, spread_blocks * nblocks, [&](std::size_t k) {
          std::size_t b = 0;
          for (std::size_t skip = k / nblocks;; ++b) {
            if (sc.blocks[b].spread_learn && skip-- == 0) break;
          }
          learn_spread(b, k % nblocks, nblocks);
        });
  }
  const std::uint64_t t_spread = timed ? mono_ns() : 0;
  std::uint64_t round_max_recv = 0;
  for (std::size_t b = 0; b < nblocks; ++b)
    round_max_recv = std::max(round_max_recv, sc.blocks[b].max_recv);
  stats_.max_recv_in_round =
      std::max(stats_.max_recv_in_round, round_max_recv);
  // Bounces are spilled as references during placement and returned
  // dest-major here, the order Ctx::bounced() has always exposed. After
  // placement each overflowing destination's bounce cursor sits at the end
  // of its run.
  for (const Slot d : sc.ovf_dests) {
    for (std::size_t k = sc.bounce_base[d]; k < sc.bounce_cursor[d]; ++k) {
      const auto& r = sc.bounce_refs[k];
      if (sc.bounced[r.src].empty()) sc.bounce_srcs.push_back(r.src);
      Bounced& b = sc.bounced[r.src].emplace_back();
      b.dst = NodeRef(d);
      wire::decode(r.enc, ids_[r.src], trailered, b.msg);
    }
  }
  // Trace events read the canonical placement: dest-major, each
  // destination's delivered records from its inbox slice, then its bounced
  // references — both lists in arrival order (see trace.h).
  if (trace_) [[unlikely]] {
    const std::uint64_t* const inbox = sc.inbox_words.get();
    for (const Slot d : sc.touched_dests) {
      const std::uint64_t* p = inbox + sc.inbox_lo[d];
      for (std::uint32_t i = 0; i < sc.inbox_len[d]; ++i) {
        trace_->record({stats_.rounds, wire::src(p), d, wire::tag(p),
                        MessageOutcome::kDelivered});
        p += wire::record_words(p, trailered);
      }
      if ((sc.inbox_cur[d] & kOvfBit) == 0) continue;
      for (std::size_t k = sc.bounce_base[d]; k < sc.bounce_cursor[d]; ++k) {
        const auto& r = sc.bounce_refs[k];
        trace_->record({stats_.rounds, r.src, d, wire::tag(r.enc),
                        MessageOutcome::kBounced});
      }
    }
  }
  stats_.messages_delivered += accept_msgs;
  stats_.messages_bounced += bounce_total;
  if (timed) {
    // The block tasks timed their placement and learn passes separately;
    // the job's wall time is split between the two phases in that ratio,
    // and the serial bounce spill and trace count as placement. A skipped
    // learn pass (clique mode) reports zero, not the branch overhead.
    std::uint64_t place_ns = 0;
    std::uint64_t learn_ns = 0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      place_ns += sc.blocks[b].place_ns;
      learn_ns += sc.blocks[b].learn_ns;
    }
    // The spread learn job, if any, is learn time whole.
    const std::uint64_t job_ns = t_blocks - tmark;
    round_ns_.learn =
        (trailered && place_ns + learn_ns != 0
             ? static_cast<std::uint64_t>(static_cast<double>(job_ns) *
                                          static_cast<double>(learn_ns) /
                                          static_cast<double>(place_ns +
                                                              learn_ns))
             : 0) +
        (spread_blocks != 0 ? t_spread - t_blocks : 0);
    round_ns_.placement = mono_ns() - tmark - round_ns_.learn;
    stats_.phase_ns.body += round_ns_.body;
    stats_.phase_ns.sort += round_ns_.sort;
    stats_.phase_ns.rng += round_ns_.rng;
    stats_.phase_ns.placement += round_ns_.placement;
    stats_.phase_ns.learn += round_ns_.learn;
  }

  // Tail — compute the next round's frontier and hand the recipient list to
  // the next cleanup (place_block already re-zeroed dest_count).
  wake_scratch_.clear();
  for (auto& out : sc.outboxes) {
    // Worker slices are contiguous and ascending, so concatenating the
    // per-arena wake lists in arena order yields a sorted list.
    if (!out.wake.empty()) {
      frontier_track_ = true;  // a body self-wake turns tracking on
      wake_scratch_.insert(wake_scratch_.end(), out.wake.begin(),
                           out.wake.end());
      out.wake.clear();
    }
  }
  if (frontier_track_) {
    std::sort(sc.bounce_srcs.begin(), sc.bounce_srcs.end());
    // frontier = recipients ∪ self-wakes ∪ bounce holders ∪ any referee
    // wakes already queued for the next round (kept across dense rounds).
    flush_active();
    sorted_union_into(active_, sc.touched_dests, active_scratch_);
    sorted_union_into(active_, wake_scratch_, active_scratch_);
    sorted_union_into(active_, sc.bounce_srcs, active_scratch_);
  }
  sc.inbox_dests.swap(sc.touched_dests);
  sc.touched_dests.clear();

  // Telemetry hook, referee context (in_body_ is false, the frontier is
  // rebuilt, all statistics folded): hand the sink this round's deltas. The
  // sink may steer the simulation from here — crash(), a drop-probability
  // flip — and the change applies from the next round. Detached cost: this
  // one predictable branch.
  if (telemetry_) [[unlikely]] {
    RoundSample smp;
    smp.round = stats_.rounds;
    smp.sent = sent;
    smp.delivered = accept_msgs;
    smp.bounced = bounce_total;
    smp.dropped = dropped;
    smp.max_send = static_cast<std::uint32_t>(round_max_send);
    smp.max_recv = static_cast<std::uint32_t>(round_max_recv);
    smp.touched_dests = static_cast<std::uint32_t>(sc.inbox_dests.size());
    smp.inbox_words = layout_words;
    smp.frontier =
        frontier_track_ ? static_cast<std::uint32_t>(active_.size()) : 0;
    smp.frontier_tracked = frontier_track_;
    smp.crashed = static_cast<std::uint32_t>(crashed_n_);
    // Round-level: at least 1/kDenseSweep of all destinations touched.
    smp.dense_sweep = sc.inbox_dests.size() >= n_ / kDenseSweep;
    smp.sparse_dispatch = sparse_dispatch_;
    smp.phase_ns = round_ns_;
    telemetry_->on_round(smp);
  }
}

// Step 1 of a block-parallel round. Runs on the body task that filled the
// arena (or on the calling thread after a serial body): one walk of the
// arena's record headers, appending each record's bucket entry to its
// destination block's bucket. An arena too large for the entries' offsets
// is left unbucketed; its round is delivered serially.
void Network::bucket_arena(unsigned a) {
  OutArena& out = scr_->outboxes[a];
  if (out.len >= Bucket::kMaxArenaWords) return;
  const bool trailered = !is_clique();
  const std::uint64_t* const buf = out.buf.get();
  Bucket* const buckets = out.buckets.data();
  for (std::size_t off = 0; off < out.len;) {
    const std::uint64_t* p = buf + off;
    const Slot dst = wire::dst(p);
    const Slot b = dst / block_slots_;
    const std::size_t rl = wire::record_words(p, trailered);
    buckets[b].recs.push_back(Bucket::entry(off, rl, dst - b * block_slots_));
    off += rl;
  }
}

// Link loss: the message silently disappears; the sender learns nothing
// (unlike a capacity bounce). A crashed destination behaves identically —
// the sender cannot tell the difference. Asked of every record in global
// source order, so the draws consume the delivery stream in that order.
// Callers draw from a local copy of the stream, which the compiler can
// keep in registers across the arena writes.
bool Network::drop_draw(Slot dst, Rng& rng) const {
  return crashed_[dst] || (cfg_.drop_probability > 0.0 &&
                           rng.chance(cfg_.drop_probability));
}

void Network::drop_record(std::uint64_t* p) {
  if (trace_)
    trace_->record({stats_.rounds, wire::src(p), wire::dst(p), wire::tag(p),
                    MessageOutcome::kDropped});
  wire::retarget(p, kNoSlot);  // tombstone: every later pass skips it
}

std::uint64_t Network::drop_pass(Rng& rng, bool trailered) {
  Rng r = rng;
  std::uint64_t dropped = 0;
  for (auto& out : scr_->outboxes) {
    std::uint64_t* p = out.buf.get();
    std::uint64_t* const end = p + out.len;
    while (p < end) {
      if (drop_draw(wire::dst(p), r)) {
        drop_record(p);
        ++dropped;
      }
      p += wire::record_words(p, trailered);
    }
  }
  rng = r;
  return dropped;
}

// Step 2 for one block: clear the inbox extents the last round left in
// [lo, hi), then count the block's records — straight from the arena
// streams (`direct`, the serial round) or from its buckets in arena order —
// into its dest_count entries. The block names each destination in its
// touched list the first time it is counted, and in its overflow list the
// moment it passes capacity. Tombstoned (dropped) records count nowhere.
// With `filter` set, the direct walk makes the round's drop draws from
// `rng` as it goes (the serial round's one pass over the headers) and
// returns the number dropped; the bucket walk instead reads each record's
// destination, which drop_pass may have tombstoned, and never touches
// `rng`. Without `filter` a bucket entry alone says where its record goes.
std::uint64_t Network::count_block(std::size_t b, Slot lo, Slot hi,
                                   bool direct, bool filter, bool trailered,
                                   Rng& rng) {
  RoundScratch& sc = *scr_;
  DeliverBlock& blk = sc.blocks[b];
  clear_inbox_len(lo, hi);
  blk.ovf.clear();
  const auto cap = static_cast<std::size_t>(capacity_);
  std::uint64_t* const dest_count = sc.dest_count.data();
  std::size_t words = 0;
  std::size_t msgs = 0;
  std::uint64_t dropped = 0;
  const auto count = [&](Slot dst, std::size_t rl) {
    if (dst == kNoSlot) return;
    std::uint64_t& c = dest_count[dst];
    if (c == 0) blk.touched.push_back(dst);
    c += pack_one(rl);
    if (pk_count(c) == cap + 1) blk.ovf.push_back(dst);
    words += rl;
    ++msgs;
  };
  Rng r = rng;  // the direct walk's drop draws (see drop_draw)
  for (const auto& out : sc.outboxes) {
    std::uint64_t* const buf = out.buf.get();
    if (direct) {
      for (std::uint64_t* p = buf; p < buf + out.len;) {
        const std::size_t rl = wire::record_words(p, trailered);
        const Slot dst = wire::dst(p);
        if (filter && drop_draw(dst, r)) {
          drop_record(p);
          ++dropped;
        } else {
          count(dst, rl);
        }
        p += rl;
      }
    } else {
      for (const std::uint64_t e : out.buckets[b].recs) {
        count(filter ? wire::dst(buf + Bucket::offset(e))
                     : lo + Bucket::rel_dst(e),
              Bucket::words(e));
      }
    }
  }
  blk.words = words;
  blk.msgs = msgs;
  // Overflow lists fill in arrival order; they are short, so sort them
  // here. Touched lists are ordered in place_block.
  std::sort(blk.ovf.begin(), blk.ovf.end());
  if (direct) rng = r;
  return dropped;
}

// O(last round's recipients in range) cleanup of the inbox extents the
// previous delivery wrote; a near-dense range uses a sequential fill.
void Network::clear_inbox_len(Slot lo, Slot hi) {
  RoundScratch& sc = *scr_;
  const auto first =
      std::lower_bound(sc.inbox_dests.begin(), sc.inbox_dests.end(), lo);
  const auto last = std::lower_bound(first, sc.inbox_dests.end(), hi);
  if (static_cast<std::size_t>(last - first) >= (hi - lo) / kDenseSweep) {
    std::fill(sc.inbox_len.begin() + lo, sc.inbox_len.begin() + hi, 0u);
  } else {
    for (auto it = first; it != last; ++it) sc.inbox_len[*it] = 0;
  }
}

// Step 3 for one block. First the per-destination layout, in
// destination-slot order: the block's touched list is ordered into its
// extent of the round's list (sorted, or — for a near-dense block — rebuilt
// by a sequential sweep of the range), and each destination gets its inbox
// extent and write cursor from the block's arena offset. An oversubscribed
// destination keeps its full pre-overflow word extent (accepted records
// pack at its front, the bounced records' words are slack the next round
// reclaims) and its cursor carries the kOvfBit flag.
//
// Then the one placement loop: each accepted record is copied exactly once,
// verbatim, from its outbox arena straight to its final dest-major inbox
// position — nothing is decoded; InboxView reads the records in place.
// Records are visited in global source order (arenas in slice order, each
// arena's stream or bucket in stream order), so every destination receives
// its messages in arrival order. A flagged destination consults its
// acceptance bitmap per arrival and spills a bounce reference for each
// rejected one.
//
// Last, dest-major over the block's contiguous inbox slices, the knowledge
// learn pass: delivery teaches the receiver the sender's ID plus every ID
// word in the payload (the packet-header analogy from message.h). Running
// it dest-major instead of inline during source-order placement loads each
// receiver's knowledge table once per round rather than once per message,
// and it reads the records' ID-slot trailers, so it never touches the
// IdMap. Knowledge updates are idempotent and commutative, so the pass
// order is unobservable.
void Network::place_block(std::size_t b, Slot lo, Slot hi, bool direct,
                          bool trailered, bool timed) {
  RoundScratch& sc = *scr_;
  DeliverBlock& blk = sc.blocks[b];
  const std::uint64_t t0 = timed ? mono_ns() : 0;
  const std::size_t count = blk.touched.size();
  Slot* const touched = sc.touched_dests.data() + blk.touched_off;
  const bool dense = count >= (hi - lo) / kDenseSweep;
  if (dense) {
    Slot* t = touched;
    for (Slot d = lo; d < hi; ++d) {
      if (sc.dest_count[d] != 0) *t++ = d;
    }
  } else {
    std::sort(blk.touched.begin(), blk.touched.end());
    std::copy(blk.touched.begin(), blk.touched.end(), touched);
  }
  blk.touched.clear();
  const auto cap = static_cast<std::size_t>(capacity_);
  std::size_t words = blk.base;
  std::uint64_t max_recv = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Slot d = touched[i];
    const std::uint64_t dc = sc.dest_count[d];
    const std::size_t m = pk_count(dc);
    max_recv = std::max<std::uint64_t>(max_recv, m);
    sc.inbox_lo[d] = words;
    sc.inbox_cur[d] = static_cast<std::uint32_t>(words) |
                      (m > cap ? kOvfBit : 0u);
    sc.inbox_len[d] = static_cast<std::uint32_t>(std::min(m, cap));
    words += pk_words(dc);
  }
  blk.max_recv = max_recv;

  std::uint64_t* const inbox = sc.inbox_words.get();
  const auto place = [&sc, inbox](const std::uint64_t* rec, std::size_t rl) {
    const Slot dst = wire::dst(rec);
    if (dst == kNoSlot) return;  // tombstoned by the drop pass
    const std::uint32_t cur = sc.inbox_cur[dst];
    if (cur & kOvfBit) {
      if (*sc.ovf_cursor[dst]++ == 0) {
        sc.bounce_refs[sc.bounce_cursor[dst]++] = {rec, wire::src(rec)};
        return;
      }
    }
    sc.inbox_cur[dst] = cur + static_cast<std::uint32_t>(rl);
    std::uint64_t* q = inbox + (cur & ~kOvfBit);
    for (std::size_t i = 0; i < rl; ++i) q[i] = rec[i];
  };
  for (const auto& out : sc.outboxes) {
    const std::uint64_t* const buf = out.buf.get();
    if (direct) {
      for (const std::uint64_t* p = buf; p < buf + out.len;) {
        const std::size_t rl = wire::record_words(p, trailered);
        place(p, rl);
        p += rl;
      }
    } else {
      for (const std::uint64_t e : out.buckets[b].recs)
        place(buf + Bucket::offset(e), Bucket::words(e));
    }
  }
  // The counts are spent (the bounce runs end at their cursors): restore
  // the all-zero invariant over the block.
  if (dense) {
    std::fill(sc.dest_count.begin() + lo, sc.dest_count.begin() + hi, 0u);
  } else {
    for (std::size_t i = 0; i < count; ++i) sc.dest_count[touched[i]] = 0;
  }
  const std::uint64_t t1 = timed ? mono_ns() : 0;
  // In clique mode every node already knows every ID: skip the learn pass
  // (and its random access into know_) entirely. A skewed block learns in
  // the spread job instead.
  if (trailered && !blk.spread_learn) {
    for (std::size_t i = 0; i < count; ++i) learn_dest(touched[i], inbox);
  }
  if (timed) {
    blk.place_ns = t1 - t0;
    blk.learn_ns = mono_ns() - t1;
  }
}

// Chunk c of skewed block b's learn pass, one chunk per block of the
// round: the destinations whose inbox slices start in the c-th of nblocks
// equal shares of the block's inbox words. The block's slices are laid out
// in touched-list order, so inbox_lo ascends along the list and each chunk
// is a contiguous run of it found by binary search. A destination lies in
// exactly one chunk, so each knowledge table still has one writing task.
void Network::learn_spread(std::size_t b, std::size_t c,
                           std::size_t nblocks) {
  RoundScratch& sc = *scr_;
  const DeliverBlock& blk = sc.blocks[b];
  const Slot* const first = sc.touched_dests.data() + blk.touched_off;
  const Slot* const last =
      b + 1 < nblocks ? sc.touched_dests.data() + sc.blocks[b + 1].touched_off
                      : sc.touched_dests.data() + sc.touched_dests.size();
  const auto starts_before = [&sc](Slot d, std::size_t w) {
    return sc.inbox_lo[d] < w;
  };
  const Slot* lo = std::lower_bound(first, last,
                                    blk.base + blk.words * c / nblocks,
                                    starts_before);
  const Slot* hi = std::lower_bound(lo, last,
                                    blk.base + blk.words * (c + 1) / nblocks,
                                    starts_before);
  const std::uint64_t* const inbox = sc.inbox_words.get();
  for (const Slot* d = lo; d < hi; ++d) learn_dest(*d, inbox);
}

// Draw destination d's accepted capacity-sized subset (uniform via partial
// Fisher-Yates over arrival indices, preserving source order among the
// accepted) and mark it in d's region of the acceptance bitmap. `rng` is
// either the live delivery stream (serial path) or a snapshot of it taken
// at exactly this destination's draw position (parallel replay) — both
// consume the identical below() sequence.
void Network::draw_overflow_bitmap(Slot d, Rng& rng,
                                   std::vector<std::uint32_t>& idx_scratch) {
  RoundScratch& sc = *scr_;
  const auto cap = static_cast<std::size_t>(capacity_);
  const std::size_t m = pk_count(sc.dest_count[d]);
  idx_scratch.resize(m);
  std::iota(idx_scratch.begin(), idx_scratch.end(), 0u);
  for (std::size_t i = 0; i < cap; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
    std::swap(idx_scratch[i], idx_scratch[j]);
  }
  const std::size_t boff = sc.bitmap_off[d];
  for (std::size_t i = 0; i < cap; ++i) sc.ovf_bitmap[boff + idx_scratch[i]] = 1;
}

// One destination's slice of the knowledge learn pass: walk its contiguous
// inbox records, teaching it each sender's ID plus every ID word carried in
// a payload trailer. Touches only know_[d], so per-destination tasks are
// race-free. A destination already in the dense (bitset) form — it never
// changes back — takes a fast path that sets the bits directly, with no
// per-record representation dispatch; a sparse one may be promoted part way
// through its batch, so it keeps the re-dispatching learn_slot path.
void Network::learn_dest(Slot d, const std::uint64_t* inbox) {
  RoundScratch& sc = *scr_;
  Knowledge& k = know_[d];
  const std::uint64_t* p = inbox + sc.inbox_lo[d];
  const std::uint32_t len = sc.inbox_len[d];
  if (std::uint64_t* const words = k.dense_words()) {
    std::size_t gained = 0;
    learn_records(p, len, [words, &gained](Slot s) {
      std::uint64_t& w = words[s >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      gained += static_cast<std::size_t>((w & bit) == 0);
      w |= bit;
    });
    k.add_known(gained);
  } else {
    learn_records(p, len, [&k](Slot s) { k.learn_slot(s); });
  }
}

}  // namespace dgr::ncc
