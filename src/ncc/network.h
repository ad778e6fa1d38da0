// The NCC round engine (paper §2).
//
// A Network owns n nodes with unique IDs, their knowledge sets, and the
// synchronous round loop. All protocol communication flows through
// Ctx::send, which enforces the two model rules:
//   1. the sender must know the destination's ID (KT0 knowledge), and
//   2. a node sends at most `capacity()` messages per round.
// Receive capacity is enforced at delivery; see OverflowPolicy.
//
// Protocol style: orchestration code calls net.round(body) once per
// synchronous round; `body` runs once per node and must use only that node's
// local state plus ctx.inbox_view(). Messages sent in round t are visible in
// inboxes during round t+1. Referee-side accessors (slot_of, path_order, ...)
// exist for verification and test assertions only.
//
// Addressing: a node names the nodes it knows by NodeRef handles (ids.h)
// that only the engine mints — ctx.self(), ctx.initial_successor(),
// m.src_ref() and m.ref_word(i) of a delivered message. Protocols keep
// handles in their overlays and send to them; a NodeId is resolved only
// where an ID arrives as a bare number (an algorithm's output, NCC1's
// all_ids) or, on NCC1 networks, where m.ref_word(i) reads an ID word
// (clique records carry no slot trailer), at the cost of one IdMap lookup
// each, counted against the reading node (NetStats::id_resolutions).
//
// Active-set (sparse) rounds: net.round_active(body) runs the body only for
// the round's *active* slots — slots that received a message or a bounce in
// the previous round, slots whose body called ctx.wake() last round, and
// slots woken referee-side with net.wake(s). Frontier-style primitives (a
// broadcast wave, a convergecast, a token route) touch O(frontier) CPU per
// round instead of O(n), and terminate when the active set drains
// (net.has_active()). Contract for bodies driven this way: a slot that the
// frontier would not cover must be *silent* — no sends, no RNG draws, no
// observable state change — so that a dense dispatch of the same body
// (Config::sparse_rounds = false, or plain net.round) produces a bit-for-bit
// identical transcript. The active list is kept sorted by slot and is
// partitioned across the worker pool in contiguous slices, so the outbox
// arena concatenation order — the determinism contract — is the same as a
// dense round's for any thread count.
//
// Datapath layout (perf-critical, see EXPERIMENTS.md for the benchmarks):
//   - round bodies run on the process-wide Executor (executor.h): the
//     Network holds a lease sized by Config::threads and dispatches each
//     round as one parallel-for over its contiguous slot slices — no thread
//     spawn/join per round, and concurrent Networks share one pool;
//   - each worker wire-encodes sends into a private flat outbox arena of
//     variable-length records (a one-word message costs 24 bytes, not
//     sizeof(Message)); arenas concatenate to global source-slot order,
//     making the transcript identical for any thread count;
//   - deliver() counting-sorts messages by destination into fixed
//     delivery blocks (contiguous destination-slot ranges, one per worker,
//     set by n and the thread count alone). A serial round is one block
//     over [0, n) that streams the record headers for its counts (Ctx::send
//     keeps no per-send bookkeeping). A block-parallel round — threads > 1
//     and enough outbox traffic — buckets each arena's records by
//     destination block in the body task that wrote them, counts each
//     block from its buckets in one executor job, runs a serial prefix
//     over the block totals, and then, in one executor task per block,
//     lays out the block's inboxes, places its records and runs its learn
//     pass. Each wire record is copied exactly once, verbatim, straight to
//     its final position in a shared flat dest-major inbox arena of
//     variable-length records — the receive side is zero-copy end to end:
//     no Message materialization, no per-message metadata sidecar.
//     Ctx::inbox_view() hands bodies an InboxView whose MessageRef elements
//     decode fields lazily from the records in place. An attached Trace
//     reads its events off the same placement after the fact (a
//     strict-mode overflow throws before any delivery events). The
//     delivery-time learn pass runs dest-major over the records'
//     contiguous ID-slot trailers, never touching the IdMap; a destination
//     already in the dense bitset form sets its bits directly;
//   - every block's records are placed in global source order (arenas in
//     slice order, each stream or bucket in stream order), and every
//     destination's counts, cursors, inbox slice and knowledge table have
//     exactly one writing task, so per-destination arrival order is
//     preserved verbatim. Only the two passes that consume the delivery
//     RNG in a set order stay serial: the link-loss/crash drop draws, in
//     source order, and the overflow-acceptance pre-draw's snapshot scan,
//     in destination order, whose per-destination replays then run on
//     per-worker jobs — bit-identical to the serial stream. All of this is
//     scheduling only: transcripts stay bit-identical at any thread count
//     (tests/test_parallel_deliver.cpp pins this);
//   - every per-round sweep is list-driven: touched destinations, bounce
//     sources, and the active frontier name exactly the entries to visit
//     and re-zero, so a round costs O(traffic + frontier), not O(n) (near-
//     dense rounds — at least 1/16th of all destinations touched — fall
//     back to sequential sweeps, which are cheaper than scattering at that
//     density; the choice follows the round's own touched count and is
//     pure bookkeeping strategy, so transcripts are bit-identical either
//     way);
//   - datapath memory is O(traffic), not O(threads·n): outbox arenas and
//     their block buckets grow with the records sent, the per-destination
//     counts are one shared table that every block writes only in its own
//     range, and the overflow/bounce cursor tables materialize lazily on
//     first use. Each Network owns its round-transient bundle
//     (RoundScratch) and frees it on destruction;
//   - a send to a NodeRef carries its destination slot, and an ID word
//     appended from a NodeRef carries its trailer slot, so the send path
//     resolves nothing: it probes the sender's slot-indexed knowledge
//     (Knowledge, a sparse-to-dense hybrid) for the KT0 check and encodes.
//     The NodeId overload and bare ID words pay one IdMap lookup each
//     (hashed unless IDs are 1..n). Both overloads share one send body,
//     which is header-inline (the build has no LTO) with its failure
//     diagnostics outlined to Network::send_fail, so round bodies pay one
//     lean inlined path per message.
#pragma once

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ncc/arena.h"
#include "ncc/config.h"
#include "ncc/executor.h"
#include "ncc/id_map.h"
#include "ncc/ids.h"
#include "ncc/knowledge.h"
#include "ncc/message.h"
#include "ncc/stats.h"
#include "ncc/telemetry.h"
#include "ncc/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::ncc {

class Network;

/// Lazily-decoding reference to one delivered message, backed directly by
/// its wire record in the engine's inbox arena (see ncc::wire in message.h
/// for the layout). Field accessors read straight from the record — nothing
/// is materialized until materialize() is called — so iterating an inbox
/// and switching on tag() costs two loads per message, not a Message copy.
/// Validity: a MessageRef aliases engine-owned memory that the next round's
/// delivery repacks; do not hold one across the end of the round body
/// (debug builds diagnose stale dereferences, see InboxView).
class MessageRef {
 public:
  std::uint32_t tag() const { return wire::tag(rec_); }
  std::uint8_t size() const { return wire::size(rec_); }
  std::uint8_t id_mask() const { return wire::id_mask(rec_); }
  /// Sender's ID (the engine stamps it from the routing word; it is never
  /// transmitted on the wire).
  NodeId src() const { return ids_[wire::src(rec_)]; }
  /// The sender as a handle, straight from the routing word.
  NodeRef src_ref() const { return NodeRef(wire::src(rec_)); }

  std::uint64_t word(std::size_t i) const {
    DGR_CHECK(i < size());
    return rec_[wire::kHeaderWords + i];
  }
  /// Signed view of a word (positions may be sentinel -1).
  std::int64_t sword(std::size_t i) const {
    return static_cast<std::int64_t>(word(i));
  }
  NodeId id_word(std::size_t i) const {
    DGR_CHECK(i < size() && (id_mask() & (1u << i)));
    return static_cast<NodeId>(rec_[wire::kHeaderWords + i]);
  }
  /// ID word i as a handle. On learning networks it is read from the
  /// record's slot trailer (written by the sender's send); clique records
  /// carry no trailer, so there the ID is looked up, and the lookup is
  /// counted in NetStats::id_resolutions against the reading node.
  NodeRef ref_word(std::size_t i) const {
    DGR_CHECK(i < size() && (id_mask() & (1u << i)));
    if (map_ == nullptr) {
      const auto below = static_cast<std::uint8_t>(id_mask() & ((1u << i) - 1));
      return NodeRef(static_cast<Slot>(
          wire::trailer(rec_)[wire::trailer_words(below)]));
    }
    ++*resolutions_;
    return NodeRef(map_->find(static_cast<NodeId>(rec_[wire::kHeaderWords + i])));
  }

  /// Full decode into an owning Message (for code that stores or re-sends
  /// delivered messages, e.g. a forwarding queue). ID words keep their
  /// handles, so re-sending resolves nothing.
  Message materialize() const {
    Message m;
    wire::decode(rec_, src(), map_ == nullptr, m);
    return m;
  }

 private:
  friend class InboxView;
  MessageRef(const std::uint64_t* rec, const NodeId* ids, const IdMap* map,
             std::uint32_t* resolutions)
      : rec_(rec), ids_(ids), map_(map), resolutions_(resolutions) {}
  const std::uint64_t* rec_;
  const NodeId* ids_;
  // Clique networks only; both null when records are trailered. The
  // counter is the reading Ctx's IdMap lookup count.
  const IdMap* map_;
  std::uint32_t* resolutions_;
};

/// Zero-copy view of one node's inbox for the current round: an input range
/// of MessageRef over the node's contiguous slice of the wire-record inbox
/// arena. Obtained from Ctx::inbox_view().
///
/// Lifetime: the view aliases engine-owned arenas that the next round's
/// delivery repacks, so it is only valid inside the round body that created
/// it. Debug builds (NDEBUG not defined) stamp each view with the delivery
/// generation and fail a DGR_CHECK with a clear diagnostic if a stale view
/// is dereferenced after the round ends; release builds pay nothing.
class InboxView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = MessageRef;
    using difference_type = std::ptrdiff_t;

    MessageRef operator*() const {
      // NCC_* so the check (and its operands — the gen fields only exist
      // in debug layouts) vanishes entirely under NDEBUG.
      NCC_ASSERT_MSG(*live_gen_ == gen_,
                     "stale InboxView dereferenced: the view was created in "
                     "an earlier round and its arena has been repacked (views "
                     "are only valid inside the round body that created "
                     "them)");
      return MessageRef(p_, ids_, map_, resolutions_);
    }
    iterator& operator++() {
      p_ += wire::record_words(p_, map_ == nullptr);
      --left_;
      return *this;
    }
    bool operator==(const iterator& o) const { return left_ == o.left_; }
    bool operator!=(const iterator& o) const { return left_ != o.left_; }

   private:
    friend class InboxView;
    const std::uint64_t* p_ = nullptr;
    const NodeId* ids_ = nullptr;
    const IdMap* map_ = nullptr;
    std::uint32_t* resolutions_ = nullptr;
    std::uint32_t left_ = 0;
#ifndef NDEBUG
    const std::uint64_t* live_gen_ = nullptr;
    std::uint64_t gen_ = 0;
#endif
  };

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  iterator begin() const {
    iterator it;
    it.p_ = base_;
    it.ids_ = ids_;
    it.map_ = map_;
    it.resolutions_ = resolutions_;
    it.left_ = len_;
#ifndef NDEBUG
    it.live_gen_ = live_gen_;
    it.gen_ = gen_;
    if (len_ != 0) (void)*it;  // surface a stale view at first touch
#endif
    return it;
  }
  iterator end() const { return iterator{}; }

 private:
  friend class Network;
  // `map` is the IdMap on clique networks (untrailered records) and null on
  // learning networks; `resolutions` is then the reading Ctx's lookup
  // counter (null on learning networks).
#ifndef NDEBUG
  InboxView(const std::uint64_t* base, std::uint32_t len, const NodeId* ids,
            const IdMap* map, std::uint32_t* resolutions,
            const std::uint64_t* live_gen)
      : base_(base), len_(len), ids_(ids), map_(map),
        resolutions_(resolutions), live_gen_(live_gen), gen_(*live_gen) {}
#else
  InboxView(const std::uint64_t* base, std::uint32_t len, const NodeId* ids,
            const IdMap* map, std::uint32_t* resolutions,
            const std::uint64_t* /*live_gen*/)
      : base_(base), len_(len), ids_(ids), map_(map),
        resolutions_(resolutions) {}
#endif
  const std::uint64_t* base_;
  std::uint32_t len_;
  const NodeId* ids_;
  const IdMap* map_;
  std::uint32_t* resolutions_;
#ifndef NDEBUG
  const std::uint64_t* live_gen_;  // &Network::inbox_gen_
  std::uint64_t gen_;              // generation at creation
#endif
};

/// Per-node view handed to the round body. Only node-local information is
/// reachable through it.
class Ctx {
 public:
  NodeId id() const;
  Slot slot() const { return slot_; }
  /// This node's own handle.
  NodeRef self() const { return NodeRef(slot_); }
  /// The ID behind a handle this node holds (kNoNode for the null handle).
  NodeId id_of(NodeRef r) const;
  /// n is common knowledge in the model (paper §3.1.1 assumes it).
  std::size_t n() const;
  /// Global synchronous round number (common knowledge: nodes count rounds).
  std::uint64_t round() const;
  /// Per-round send/receive budget, Theta(log n) messages.
  int capacity() const;
  /// Send budget still available to this node in the current round.
  int sends_left() const;

  /// Whether this node knows `id` (one IdMap lookup on learning networks,
  /// counted in NetStats::id_resolutions).
  bool knows(NodeId id);
  /// Initial knowledge: this node's successor in the directed path Gk (the
  /// null handle for the last node).
  NodeRef initial_successor() const;
  /// NCC1 only: the sorted list of all IDs (common knowledge in KT1).
  std::span<const NodeId> all_ids() const;
  /// Entry point for an ID held as a bare number (an algorithm's output,
  /// NCC1's all_ids): its handle, resolved once. The node must know the ID
  /// (a KT0 violation otherwise). Counted in NetStats::id_resolutions.
  NodeRef ref_of(NodeId id);
  /// Append an ID word naming `r` to `m`: the word carries r's ID, and the
  /// send writes r's slot into the record trailer without a lookup.
  Message& push_id(Message& m, NodeRef r) const;

  /// Queue a message for delivery next round. Enforces knowledge + send cap:
  /// the sender must know the destination and every ID word it forwards.
  /// A handle destination (and every ID word appended from a handle) skips
  /// the NodeId -> Slot lookup; a NodeId destination or a bare ID word costs
  /// one IdMap lookup each, counted in NetStats::id_resolutions. Both
  /// overloads write the same record, so transcripts do not depend on which
  /// one a protocol uses. Forced inline: the definition has grown past the
  /// compilers' inlining budget, and an outlined call here means copying the
  /// Message through the stack once per message — measurably (~3x) slower
  /// on the all-dense engine microbenches.
#if defined(__GNUC__) || defined(__clang__)
  [[gnu::always_inline]]
#endif
  inline void send(NodeRef to, Message m);
#if defined(__GNUC__) || defined(__clang__)
  [[gnu::always_inline]]
#endif
  inline void send(NodeId to, Message m);

  /// Zero-copy view of the messages delivered to this node at the start of
  /// the current round: MessageRefs decode fields lazily from the wire
  /// records in place. Valid only inside this round body (see InboxView).
  /// On NCC1 networks, MessageRef::ref_word lookups are counted against
  /// this node in NetStats::id_resolutions.
  InboxView inbox_view();
  /// This node's sends from the previous round that were bounced.
  std::span<const Bounced> bounced() const;

  /// Keep this node in the next round's active set even if it receives
  /// nothing (active-set scheduling; e.g. "my send queue has backlog").
  /// A node may only wake itself — waking another node takes a message.
  void wake();

  /// Node-private random stream (stable across runs and thread counts).
  Rng& rng();

 private:
  friend class Network;
  Ctx(Network& net, Slot slot, OutArena* out)
      : net_(net), slot_(slot), out_(out) {}
  /// IdMap lookup on behalf of this node, counted.
  Slot find(NodeId id);
  /// The one send body. `to` is the destination ID when the caller had it
  /// (diagnostics only); the handle overload passes kNoNode.
#if defined(__GNUC__) || defined(__clang__)
  [[gnu::always_inline]]
#endif
  inline void send_to(Slot dst, NodeId to, Message& m);

  Network& net_;
  Slot slot_;
  OutArena* out_;  // this worker's flat outbox arena
  int sends_ = 0;  // this node's sends this round (engine copies it out)
  std::uint32_t resolutions_ = 0;  // IdMap lookups (engine folds them)
};

class Network {
 public:
  Network(std::size_t n, Config cfg = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::size_t n() const { return n_; }
  const Config& config() const { return cfg_; }
  int capacity() const { return capacity_; }
  bool is_clique() const { return cfg_.initial == InitialKnowledge::kClique; }

  /// Execute one synchronous round: run `body` once per node, then deliver.
  /// Any callable works (a std::function included); the body is dispatched
  /// through a direct call, with no type erasure of its own.
  template <typename Body,
            typename = std::enable_if_t<std::is_invocable_v<Body&, Ctx&>>>
  void round(Body&& body) {
    using B = std::remove_reference_t<Body>;
    round_raw(const_cast<void*>(static_cast<const void*>(std::addressof(body))),
              [](void* b, Ctx& ctx) { (*static_cast<B*>(b))(ctx); });
  }

  /// Active-set round: run `body` only for this round's active slots (see
  /// the file comment), then deliver. The active set is the sorted union of
  /// last round's message recipients, bounce holders, self-wakes, and
  /// referee wakes. With Config::sparse_rounds == false this dispatches
  /// densely (body runs for every slot) but keeps identical bookkeeping —
  /// the reference mode for transcript-equivalence tests.
  template <typename Body,
            typename = std::enable_if_t<std::is_invocable_v<Body&, Ctx&>>>
  void round_active(Body&& body) {
    using B = std::remove_reference_t<Body>;
    round_active_raw(
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        [](void* b, Ctx& ctx) { (*static_cast<B*>(b))(ctx); });
  }

  /// Drive active-set rounds until the frontier drains. Returns rounds
  /// executed. Seed the frontier first (wake / a preceding round's traffic).
  template <typename Body,
            typename = std::enable_if_t<std::is_invocable_v<Body&, Ctx&>>>
  std::uint64_t run_active(Body&& body) {
    std::uint64_t executed = 0;
    while (has_active()) {
      round_active(body);
      ++executed;
    }
    return executed;
  }

  /// Referee/orchestrator-side wake: slot `s` joins the next active round's
  /// frontier (primitives use this to seed initiators — the in-model
  /// equivalent is "every node knows from its own state that it starts").
  void wake(Slot s) {
    DGR_CHECK_MSG(s < n_, "wake of invalid slot " << s);
    ensure_frontier();
    active_.push_back(s);
    active_dirty_ = true;
  }
  /// Wake every slot (a dense round's frontier, as an active-set seed).
  void wake_all() {
    ensure_frontier();
    for (Slot s = 0; s < static_cast<Slot>(n_); ++s) active_.push_back(s);
    active_dirty_ = true;
  }
  /// Drop all pending activations and wakes. Primitives call this at phase
  /// boundaries so a predecessor's unconsumed deliveries cannot leak into
  /// their frontier.
  void clear_active() {
    frontier_track_ = true;  // an explicit clear means "empty frontier now"
    active_.clear();
    active_dirty_ = false;
  }
  /// Slots in the next active round's frontier (after folding wakes).
  std::size_t active_count() {
    ensure_frontier();
    flush_active();
    return active_.size();
  }
  bool has_active() { return active_count() != 0; }

  const NetStats& stats() const { return stats_; }
  void add_scope_rounds(const std::string& name, std::uint64_t r) {
    stats_.scope_rounds[name] += r;
  }

  /// Adjust the link-loss rate mid-simulation (referee-side experiment
  /// control; e.g. run a lossless build phase, then a lossy exchange).
  /// Referee context only: calling this from inside a round body is a
  /// checked error — the round's drop draws happen at delivery, so a
  /// mid-body flip would make the current round's loss rate depend on
  /// which slots ran before the flip (and, with threads > 1, on worker
  /// interleaving). Change it between rounds, or from a TelemetrySink
  /// (which the engine invokes in referee context).
  void set_drop_probability(double p) {
    DGR_CHECK_MSG(!in_body_,
                  "set_drop_probability called from inside a round body; "
                  "the loss rate may only change between rounds (referee "
                  "code or a telemetry hook)");
    DGR_CHECK_MSG(p >= 0.0 && p <= 1.0,
                  "drop probability " << p << " outside [0, 1]");
    cfg_.drop_probability = p;
  }

  /// Attach (or detach with nullptr) a per-round telemetry sink; see
  /// ncc/telemetry.h for the sample contract and steering guarantees.
  /// The Network does not own the sink; it must outlive the attachment.
  /// One slot: a caller with several observers composes them behind one
  /// sink (the scenario runner's orchestrator forwards each sample to its
  /// interval collector, live hook and metrics sink).
  void set_telemetry(TelemetrySink* sink) { telemetry_ = sink; }

  /// Per-phase wall-time breakdown (NetStats::phase_ns, RoundSample::
  /// phase_ns) without attaching a telemetry sink — the thread-scaling
  /// bench uses this. Timing is otherwise on exactly while a sink is
  /// attached; when both are off the engine reads no clocks at all
  /// (detached cost: a few predictable branches per round).
  void set_phase_timing(bool on) { phase_timing_ = on; }

  /// Attach (or detach with nullptr) a message-level trace. The Network
  /// does not own the trace; it must outlive the attachment.
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Crash-fault injection (§8 robustness experiments): a crashed node
  /// stops executing round bodies and every message addressed to it is
  /// lost (senders get no feedback — a crash is indistinguishable from
  /// loss, which is what makes it interesting). Idempotent by contract:
  /// crashing an already-crashed slot is a no-op and leaves
  /// crashed_count() — and therefore every telemetry crashed counter —
  /// unchanged (fault plans may legitimately hit the same slot twice,
  /// e.g. overlapping crash waves).
  void crash(Slot s) {
    DGR_CHECK_MSG(s < n_, "crash of invalid slot " << s);
    if (!crashed_[s]) {
      crashed_[s] = 1;
      ++crashed_n_;
    }
  }
  bool is_crashed(Slot s) const { return crashed_[s] != 0; }
  std::size_t crashed_count() const { return crashed_n_; }

  // --- Referee-side accessors (verification / test assertions only) ---
  NodeId id_of(Slot s) const { return ids_[s]; }
  NodeId id_of(NodeRef r) const { return r ? ids_[r.slot_] : kNoNode; }
  Slot slot_of(NodeId id) const;
  Slot slot_of(NodeRef r) const { return r.slot_; }
  /// Orchestrator-side: the handle node `s` holds for itself (a node always
  /// knows its own ID), for state built on the nodes' behalf between rounds.
  NodeRef ref_of(Slot s) const {
    DGR_CHECK_MSG(s < n_, "ref_of invalid slot " << s);
    return NodeRef(s);
  }
  /// Every node's ID, ascending (NCC1 common knowledge: Ctx::all_ids).
  /// Kept by set-up on every network, so referee-side code never re-sorts.
  const std::vector<NodeId>& sorted_ids() const { return sorted_ids_; }
  /// Path order of Gk: path_order()[i] is the slot at path position i.
  const std::vector<Slot>& path_order() const { return path_order_; }
  /// Number of distinct IDs node `s` currently knows.
  std::size_t knowledge_size(Slot s) const { return know_[s].size(n_); }
  /// The slot of `id` if node `s` knows that ID, else kNoSlot.
  Slot known_slot_of(Slot s, NodeId id) const {
    const Knowledge& k = know_[s];
    const Slot t = id_map_.find(id);
    if (t == kNoSlot || !(k.knows_all() || k.knows_slot(t))) return kNoSlot;
    return t;
  }
  bool node_knows(Slot s, NodeId id) const {
    if (id == kNoNode) return false;
    // NCC1: common knowledge covers every ID; no resolution, no probe (and
    // a payload word that is not a real node ID is not a KT0 violation).
    if (know_[s].knows_all()) return true;
    return known_slot_of(s, id) != kNoSlot;
  }
  /// Maximum knowledge-set size over all nodes (information accounting for
  /// the §7 lower-bound experiments).
  std::size_t max_knowledge() const;
  std::size_t total_knowledge() const;

 private:
  friend class Ctx;

  using RoundThunk = void (*)(void*, Ctx&);

  void round_raw(void* body, RoundThunk thunk);
  void round_active_raw(void* body, RoundThunk thunk);
  /// Shared round driver: dispatch `items` work units (slots when
  /// round_list_ is null, active-list entries otherwise) across the pool,
  /// deliver, and count the round.
  void execute_round(std::size_t items, void* body, RoundThunk thunk);
  /// Fold referee wakes into a sorted, deduped active list.
  void flush_active();
  /// Turn frontier tracking on; on the first use, reconstruct the frontier
  /// the last delivery would have produced (its recipient and bounce lists
  /// are still at hand), so dense rounds run before any frontier use still
  /// feed the first active round.
  void ensure_frontier();
  void run_slots(std::size_t lo, std::size_t hi, unsigned arena, void* body,
                 RoundThunk thunk);
  void deliver();
  /// Phase timing is on exactly while a sink is attached or
  /// set_phase_timing(true); otherwise the engine reads no clocks.
  bool timing_on() const { return telemetry_ != nullptr || phase_timing_; }
  /// Delivery block b's destination-slot range (see DeliverBlock).
  Slot block_lo(std::size_t b) const {
    return static_cast<Slot>(std::min<std::size_t>(b * block_slots_, n_));
  }
  /// Append a bucket entry for every record in outbox arena `a` to the
  /// arena's bucket for its destination block (a no-op for an arena too
  /// large for the entries' offsets; its round is delivered serially).
  void bucket_arena(unsigned a);
  /// One record's link-loss / crash decision for destination `dst`, drawn
  /// from `rng`. True if the record is dropped.
  bool drop_draw(Slot dst, Rng& rng) const;
  /// Drop the record at `p`: trace it and tombstone it.
  void drop_record(std::uint64_t* p);
  /// Serial drop filter of a block-parallel round: drop_draw over every
  /// arena in global source order. Returns the number dropped.
  std::uint64_t drop_pass(Rng& rng, bool trailered);
  /// Zero inbox_len for last round's recipients in [lo, hi).
  void clear_inbox_len(Slot lo, Slot hi);
  /// Step 2 for one block: clear its range's old inbox extents and count
  /// its records — from the arena streams (`direct`, the serial round) or
  /// from its buckets — into dest_count, its touched and overflow lists
  /// and its totals. `filter`: the round drops records — the direct walk
  /// draws them from `rng` inline and returns the number dropped; the
  /// bucket walk reads destinations drop_pass may have tombstoned.
  std::uint64_t count_block(std::size_t b, Slot lo, Slot hi, bool direct,
                            bool filter, bool trailered, Rng& rng);
  /// Step 3 for one block: order its touched list into the round's list
  /// and lay out its destinations, place its records — straight from the
  /// arena streams (`direct`, the serial round) or from its buckets — then
  /// re-zero its counts and run the learn pass over its destinations.
  void place_block(std::size_t b, Slot lo, Slot hi, bool direct,
                   bool trailered, bool timed);
  /// Chunk c of nblocks of skewed block b's learn pass, split by the
  /// block's inbox words (see kSpreadLearnWords).
  void learn_spread(std::size_t b, std::size_t c, std::size_t nblocks);
  /// Overflow bitmap fill for one destination: the partial Fisher-Yates
  /// subset draw from `rng` (caller positions it — the shared delivery
  /// stream serially, or a per-destination snapshot on the parallel path).
  void draw_overflow_bitmap(Slot d, Rng& rng,
                            std::vector<std::uint32_t>& idx_scratch);
  /// Learn pass for one destination's contiguous inbox slice.
  void learn_dest(Slot d, const std::uint64_t* inbox);
  /// `resolutions` is the reading Ctx's lookup counter; the view keeps it
  /// only on clique networks, whose ref_word looks IDs up.
  InboxView make_inbox_view(Slot s, std::uint32_t* resolutions) const {
    const std::uint32_t len = scr_->inbox_len[s];
    const std::uint64_t* base =
        len != 0 ? scr_->inbox_words.get() + scr_->inbox_lo[s] : nullptr;
    const bool clique = is_clique();
    return InboxView(base, len, ids_.data(), clique ? &id_map_ : nullptr,
                     clique ? resolutions : nullptr, &inbox_gen_);
  }
  /// Cold path: re-runs the send checks in their documented order to throw
  /// the exact diagnostic; called only when the inlined fast checks failed.
  /// Takes the wire-encoded record so the hot path never spills the Message.
  /// `to` may be kNoNode for a handle send; the ID is then read from `dst`.
  [[noreturn]] void send_fail(Slot s, Slot dst, NodeId to,
                              const std::uint64_t* rec, int sends) const;

  std::size_t n_;
  Config cfg_;
  int capacity_;
  unsigned threads_;  // effective worker count, min(cfg.threads, n)

  std::vector<NodeId> ids_;               // slot -> ID
  std::vector<NodeId> sorted_ids_;        // ascending; see sorted_ids()
  std::vector<Slot> path_order_;          // position -> slot
  std::vector<Slot> initial_succ_;        // slot -> successor slot in Gk
  std::vector<Knowledge> know_;
  IdMap id_map_;  // NodeId -> Slot: referee, NCC1 and NodeId entry points

  // Round-transient state (RoundScratch, ncc/arena.h), all flat and reused
  // across rounds: after the first few rounds the steady-state datapath
  // performs no allocation, and per-round cost is O(traffic + frontier) —
  // every dense O(n) sweep has been replaced by touched/active lists that
  // name exactly the entries to visit and re-zero. Held out of line on
  // purpose: embedded in Network, the bundle made implicit-regular
  // solve_s ~5% slower on a 4-vCPU host (deliver()'s counting-sort phase
  // ~+20%), placed first or last in Network and cache-line aligned alike
  // (A/B in EXPERIMENTS.md).
  std::unique_ptr<RoundScratch> scr_ = std::make_unique<RoundScratch>();
  // Delivery generation; bumped every deliver() when the inbox arena is
  // repacked. Debug InboxViews stamp it to diagnose stale dereferences.
  std::uint64_t inbox_gen_ = 0;
  // Active-set scheduling state. active_ is the next round_active frontier
  // (sorted + deduped once flushed); run_list_ is the round-owned copy the
  // workers read; round_list_ aliases it while a sparse round executes.
  std::vector<Slot> active_;
  std::vector<Slot> run_list_;
  std::vector<Slot> active_scratch_;  // set_union spare
  std::vector<Slot> wake_scratch_;    // concatenated per-arena wakes
  bool active_dirty_ = false;
  // Frontier maintenance is lazy: a simulation that only ever calls the
  // dense round() never pays for building next-round active sets. The flag
  // latches on the first wake (referee- or body-side) or active round.
  bool frontier_track_ = false;
  const Slot* round_list_ = nullptr;
  // Per-round worker slices (indices into run_list_, or raw slots when
  // dense); written by execute_round before the job is submitted.
  std::vector<std::pair<std::size_t, std::size_t>> worker_span_;

  // Delivery blocks: threads_ fixed destination ranges of block_slots_
  // slots each (the last one clipped to n). bucketed_ says whether this
  // round's body tasks already bucketed their arenas.
  Slot block_slots_ = 0;
  bool bucketed_ = false;
  // Parallel-delivery scratch (threads_ > 1 only). ovf_rng_ holds the
  // delivery-stream snapshot at each overflowing destination's draw block
  // (the seeded skip-ahead the parallel pre-draw replays from); ovf_part_
  // is the per-task partition; ovf_idx_w_ is the per-task Fisher-Yates
  // index scratch (worker-private, O(max m)).
  std::vector<Rng> ovf_rng_;
  std::vector<std::size_t> ovf_part_;
  std::vector<std::vector<std::uint32_t>> ovf_idx_w_;
  // Per-round phase times (written only while timing is on; see
  // set_phase_timing). Folded into stats_.phase_ns and the RoundSample.
  PhaseNanos round_ns_;
  bool phase_timing_ = false;

  std::vector<Rng> node_rng_;
  std::vector<std::uint8_t> crashed_;
  std::size_t crashed_n_ = 0;
  Trace* trace_ = nullptr;
  TelemetrySink* telemetry_ = nullptr;
  // True exactly while round bodies may be executing (set before the
  // dispatch in execute_round, cleared before deliver()). Guards the
  // referee-only knobs above; the write happens-before the worker kick and
  // the clear happens-after the join barrier, so worker reads are ordered.
  bool in_body_ = false;
  // Whether the round being delivered was dispatched on the active list
  // (RoundSample::sparse_dispatch; execution strategy, not transcript).
  bool sparse_dispatch_ = false;

  // Registration with the process-wide Executor, width = threads_. The
  // executor starts workers lazily on the first parallel round; this
  // Network no longer owns any threads of its own.
  Executor::Lease lease_;

  NetStats stats_;
};

// --- Ctx inline datapath -----------------------------------------------
// These sit on the innermost loop of every simulation; defining them here
// (the build does not use LTO) lets round bodies inline the whole send path.

inline NodeId Ctx::id() const { return net_.ids_[slot_]; }
inline std::size_t Ctx::n() const { return net_.n_; }
inline std::uint64_t Ctx::round() const { return net_.stats_.rounds; }
inline int Ctx::capacity() const { return net_.capacity_; }
inline int Ctx::sends_left() const { return net_.capacity_ - sends_; }

inline NodeId Ctx::id_of(NodeRef r) const { return net_.id_of(r); }

inline Slot Ctx::find(NodeId id) {
  ++resolutions_;
  return net_.id_map_.find(id);
}

inline bool Ctx::knows(NodeId id) {
  if (id == kNoNode) return false;
  const Knowledge& k = net_.know_[slot_];
  // NCC1: common knowledge covers every ID; no lookup (and a payload word
  // that is not a real node ID is not a KT0 violation).
  if (k.knows_all()) return true;
  const Slot s = find(id);
  return s != kNoSlot && k.knows_slot(s);
}

inline NodeRef Ctx::initial_successor() const {
  return NodeRef(net_.initial_succ_[slot_]);
}

inline std::span<const NodeId> Ctx::all_ids() const {
  DGR_CHECK_MSG(net_.is_clique(),
                "all_ids() is common knowledge only in the NCC1 model");
  return net_.sorted_ids_;
}

inline Message& Ctx::push_id(Message& m, NodeRef r) const {
  return m.push_id_slot(net_.id_of(r), r.slot_);
}

inline void Ctx::send(NodeRef to, Message m) { send_to(to.slot_, kNoNode, m); }

inline void Ctx::send(NodeId to, Message m) { send_to(find(to), to, m); }

inline void Ctx::send_to(Slot dst, NodeId to, Message& m) {
  // A Message is a plain aggregate, so a hand-corrupted size could drive
  // the encode loop out of bounds; reject it before touching the arena.
  if (m.size > kMaxWords) [[unlikely]] {
    DGR_CHECK_MSG(false, "message size " << static_cast<int>(m.size)
                                         << " exceeds kMaxWords");
  }
  // Same input class for id_mask: push_id can only set bits below size, so
  // a bit at or above size is a direct field write. The trailer is sized by
  // popcount of the whole mask but the KT0 checks and the trailer fill loop
  // only cover bits below size — an out-of-range bit would ship a trailer
  // word of uninitialized arena memory straight into the delivery-side
  // learn pass. Reject before encoding.
  if ((m.id_mask >> m.size) != 0) [[unlikely]] {
    DGR_CHECK_MSG(false, "id_mask bit set at or above message size "
                             << static_cast<int>(m.size));
  }
  // Wire-encode speculatively, before validating: this way the cold failure
  // path only needs the record pointer, the Message never has its address
  // taken, and the compiler keeps it in registers. A failed check pops the
  // record (the bytes stay intact for the diagnostic) before throwing, so a
  // body that catches the CheckError leaves no trace of the rejected send.
  // The sender's ID is stamped from the routing word at delivery, so it is
  // not transmitted.
  //
  // Forwarded-ID trailer: on learning networks the record carries each ID
  // word's slot after the payload, so the delivery-side learn pass never
  // touches the IdMap. Clique networks skip learning, so their records stay
  // trailerless (wire::record_words mirrors this split).
  const std::size_t nw = m.size;
  const bool trailered = m.id_mask != 0 && !net_.is_clique();
  const std::size_t tw = trailered ? wire::trailer_words(m.id_mask) : 0;
  const std::size_t rec_len = wire::kHeaderWords + nw + tw;
  std::uint64_t* p = out_->append(rec_len);
  p[0] = wire::routing_word(slot_, dst);
  p[1] = wire::header_word(m);
  for (std::size_t w = 0; w < nw; ++w) p[wire::kHeaderWords + w] = m.words[w];
  // Model rules 1 (sender knows destination) and 2 (send budget); see
  // Network::send_fail for the individual diagnostics.
  const Knowledge& kn = net_.know_[slot_];
  if (dst == kNoSlot || !(kn.knows_all() || kn.knows_slot(dst)) ||
      sends_ >= net_.capacity_) [[unlikely]] {
    out_->len -= rec_len;  // pop the rejected record
    net_.send_fail(slot_, dst, to, p, sends_);
  }
  // A node can only transmit IDs it actually knows (no referee leakage).
  // On learning networks a word appended from a handle already has its
  // slot; a bare ID word is looked up. Either way the slot must be known,
  // and it becomes the trailer word. The clique branch keeps the knows_all
  // short-circuit — no lookup, no probe — and rejects only the null ID.
  if (m.id_mask) {
    if (trailered) {
      std::uint64_t* tp = p + wire::kHeaderWords + nw;
      for (std::size_t w = 0; w < nw; ++w) {
        if ((m.id_mask & (1u << w)) == 0) continue;
        Slot ws = m.refs_[w];
        if (ws == kNoSlot) ws = find(m.words[w]);
        if (ws == kNoSlot || !kn.knows_slot(ws)) [[unlikely]] {
          out_->len -= rec_len;  // pop the rejected record
          net_.send_fail(slot_, dst, to, p, sends_);
        }
        *tp++ = ws;
      }
    } else {
      for (std::size_t w = 0; w < nw; ++w) {
        if ((m.id_mask & (1u << w)) && m.words[w] == kNoNode) [[unlikely]] {
          out_->len -= rec_len;  // pop the rejected record
          net_.send_fail(slot_, dst, to, p, sends_);
        }
      }
    }
  }
  ++sends_;
}

inline InboxView Ctx::inbox_view() {
  return net_.make_inbox_view(slot_, &resolutions_);
}

inline std::span<const Bounced> Ctx::bounced() const {
  // The per-slot bounce tables are lazy — materialized by the first round
  // that actually overflows a receiver — so a clean run answers from the
  // empty-table branch without ever allocating O(n) vectors.
  const auto& b = net_.scr_->bounced;
  if (slot_ >= b.size()) return {};
  return b[slot_];
}

inline void Ctx::wake() {
  auto& w = out_->wake;
  if (w.empty() || w.back() != slot_) w.push_back(slot_);
}

inline Rng& Ctx::rng() { return net_.node_rng_[slot_]; }

/// RAII helper attributing rounds to a named phase in NetStats::scope_rounds.
class ScopedRounds {
 public:
  ScopedRounds(Network& net, std::string name)
      : net_(net), name_(std::move(name)), start_(net.stats().rounds) {}
  ~ScopedRounds() { net_.add_scope_rounds(name_, net_.stats().rounds - start_); }
  ScopedRounds(const ScopedRounds&) = delete;
  ScopedRounds& operator=(const ScopedRounds&) = delete;

 private:
  Network& net_;
  std::string name_;
  std::uint64_t start_;
};

}  // namespace dgr::ncc
