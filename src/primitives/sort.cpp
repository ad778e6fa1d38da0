// Batcher odd-even merge sort over the engine (contract in sort.h).
//
// Datapath of a Batcher stage. Algorithm 3 re-sorts every phase, so this
// body runs once per member per stage, tens of millions of times on a
// power-law input. The stage list is a table (batcher_stages): each entry
// holds k % p, the mask 2k - 1, log2(2p) and the skip level log2 k, so the
// role test is masks and shifts with no division, and the partner comes
// straight from the skip-overlay level. The round loop hoists the stage
// entry and the level's link arrays out of the per-node body. The
// compare-exchange itself is branch-free: a node takes the other record
// when it is the lower end and the other record comes first, or the upper
// end and it does not. A record holds its owner as a NodeRef handle next to
// the ID: the ID breaks key ties, and the handle goes out with the record,
// so neither the partner send nor the forwarded ID word looks anything up.
#include "primitives/sort.h"

#include <algorithm>

#include "util/check.h"
#include "util/math_util.h"

namespace dgr::prim {

namespace {

enum Tag : std::uint32_t {
  kTagSortRec = 0x70,   // words = [key, id] — compare-exchange payload
  kTagNeighRec = 0x71,  // words = [key, id] — post-sort neighbour exchange
  kTagNewPos = 0x72,    // words = [rank, pred, succ, flags]
};

struct Record {
  std::uint64_t key = 0;
  NodeId id = kNoNode;  // the owner's ID (tie-break)
  NodeRef ref;          // the owner's handle (addressing)
};

// A record on the wire: words [key, id], the owner's slot in the trailer.
// Forced inline like Exchange's members: both sit in the per-stage body.
[[gnu::always_inline]] inline Record record_of(const ncc::MessageRef& m) {
  return {m.word(0), m.id_word(1), m.ref_word(1)};
}
[[gnu::always_inline]] inline ncc::Message record_msg(const ncc::Ctx& ctx,
                                                      std::uint32_t tag,
                                                      const Record& r) {
  ncc::Message m = ncc::make_msg(tag).push(r.key);
  ctx.push_id(m, r.ref);
  return m;
}

// The working state and compare-exchange of the sorting network.
// rec[s] is the (key, id) record currently held by the node at slot s; the
// network permutes records across position-holders. pending_role[s]: 0 =
// idle, 1 = lower end, 2 = upper end of this stage's comparator. ingest and
// send are forced inline: they are the per-node body of every stage, and
// an outlined call there is a call per member per stage.
struct Exchange {
  std::vector<Record> rec;
  std::vector<std::uint8_t> pending_role;
  // Keys are compared XOR `flip`, which turns the descending order into
  // the ascending one without a branch on the direction.
  std::uint64_t flip;

  Exchange(const ncc::Network& net, const PathOverlay& path,
           const std::vector<std::uint64_t>& key, bool descending)
      : rec(net.n()),
        pending_role(net.n(), 0),
        flip(descending ? ~std::uint64_t{0} : 0) {
    for (Slot s = 0; s < net.n(); ++s) {
      if (path.member(s)) rec[s] = {key[s], net.id_of(s), net.ref_of(s)};
    }
  }

  // `first_of` orders records; the lower comparator end keeps the first.
  bool first_of(const Record& a, const Record& b) const {
    const std::uint64_t ka = a.key ^ flip, kb = b.key ^ flip;
    return ka < kb || (ka == kb && a.id < b.id);
  }

  // Ingest the previous stage's exchange: the lower end takes the other
  // record when it is the first, the upper end when it is not; the
  // selection is branch-free.
  [[gnu::always_inline]] void ingest(ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    const std::uint8_t role = pending_role[s];
    Record& mine = rec[s];
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagSortRec) continue;
      const Record other = record_of(m);
      const bool take = role != 0 && ((role == 1) == first_of(other, mine));
      mine.key = take ? other.key : mine.key;
      mine.id = take ? other.id : mine.id;
      mine.ref = take ? other.ref : mine.ref;
    }
    pending_role[s] = 0;
  }

  // Take comparator end `role` at this stage and show the partner my record.
  [[gnu::always_inline]] void send(ncc::Ctx& ctx, std::uint8_t role,
                                   NodeRef partner) {
    const Slot s = ctx.slot();
    pending_role[s] = role;
    DGR_CHECK(partner);
    ctx.send(partner, record_msg(ctx, kTagSortRec, rec[s]));
  }
};

// Result shell of the sort: nothing placed yet. An empty path needs no
// rounds beyond its (empty) skip overlay.
SortResult empty_result(ncc::Network& net, const PathOverlay& path) {
  const std::size_t n = net.n();
  SortResult out;
  out.path.pred.assign(n, NodeRef{});
  out.path.succ.assign(n, NodeRef{});
  out.path.pos.assign(n, kNoPosition);
  out.path.is_member = path.is_member;
  out.path.order.assign(path.order.size(), kNoSlot);
  if (path.order.empty()) out.skip = build_skiplinks(net, out.path);
  return out;
}

// Defined below; the tail of the sort.
void finish_rewire(ncc::Network& net, const PathOverlay& path,
                   const std::vector<Record>& rec, SortResult& out);

}  // namespace

std::vector<BatcherStage> batcher_stages(std::uint64_t n_pow2) {
  std::vector<BatcherStage> stages;
  for (std::uint64_t p = 1; p < n_pow2; p *= 2) {
    for (std::uint64_t k = p; k >= 1; k /= 2) {
      stages.push_back({k, k % p, 2 * k - 1,
                        static_cast<unsigned>(floor_log2(2 * p)),
                        static_cast<unsigned>(floor_log2(k))});
    }
  }
  return stages;
}

SortResult distributed_sort(ncc::Network& net, const PathOverlay& path,
                            const SkipOverlay& skip,
                            const std::vector<std::uint64_t>& key,
                            bool descending) {
  ncc::ScopedRounds scope(net, "sort");
  DGR_CHECK(key.size() == net.n());
  const std::size_t members = path.order.size();
  SortResult out = empty_result(net, path);
  if (members == 0) return out;

  Exchange ex(net, path, key, descending);
  const auto stages = batcher_stages(next_pow2(members));

  // One round per stage: ingest the previous stage's exchange, then send
  // this stage's. Frontier: a Batcher stage involves nearly every position, and a node
  // idle at stage k can be a comparator end at stage k+1, so members hold
  // themselves active (self-wake) through the stage schedule — the stage
  // count is common knowledge — and release at the drain round, which ends
  // the wave. The engine still owes us the win that matters here: inboxes,
  // counting-sort lists, and frontier bookkeeping all scale with the traffic.
  wake_members(net, path);
  for (const BatcherStage st : stages) {
    const NodeRef* const fwd = skip.fwd[st.level].data();
    const NodeRef* const bwd = skip.bwd[st.level].data();
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!path.member(s)) return;
      ex.ingest(ctx);
      ctx.wake();
      const std::uint8_t role =
          batcher_role(st, static_cast<std::uint64_t>(path.pos[s]), members);
      if (role != 0) ex.send(ctx, role, role == 1 ? fwd[s] : bwd[s]);
    });
  }
  net.round_active([&](ncc::Ctx& ctx) {  // drain-only round
    if (path.member(ctx.slot())) ex.ingest(ctx);
  });

  finish_rewire(net, path, ex.rec, out);
  return out;
}

namespace {
// Rewiring after the network. R1: each holder shows its final
// record to its original path neighbours. R2: each holder tells the
// record's owner its rank and new neighbours. R3: owners ingest. Fills
// out.path and builds the sorted skip overlay. R1 seeds the frontier with
// every member; R2 and R3 ride on receipt.
void finish_rewire(ncc::Network& net, const PathOverlay& path,
                   const std::vector<Record>& rec, SortResult& out) {
  const std::size_t n = net.n();
  std::vector<Record> nb_pred(n), nb_succ(n);
  wake_members(net, path);
  net.round_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!path.member(s)) return;
    const ncc::Message m = record_msg(ctx, kTagNeighRec, rec[s]);
    if (path.pred[s]) ctx.send(path.pred[s], m);
    if (path.succ[s]) ctx.send(path.succ[s], m);
    ctx.wake();  // R2 runs for every member, even neighbourless singletons
  });
  net.round_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!path.member(s)) return;
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagNeighRec) continue;
      const Record r = record_of(m);
      if (m.src_ref() == path.pred[s]) nb_pred[s] = r;
      else if (m.src_ref() == path.succ[s]) nb_succ[s] = r;
    }
    // Tell the owner of my record its rank and sorted-path neighbours.
    const auto rank = static_cast<std::uint64_t>(path.pos[s]);
    auto m = ncc::make_msg(kTagNewPos).push(rank);
    std::uint64_t flags = 0;
    if (nb_pred[s].ref) {
      ctx.push_id(m, nb_pred[s].ref);
      flags |= 1;
    } else {
      m.push(0);
    }
    if (nb_succ[s].ref) {
      ctx.push_id(m, nb_succ[s].ref);
      flags |= 2;
    } else {
      m.push(0);
    }
    m.push(flags);
    ctx.send(rec[s].ref, m);
  });
  net.round_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!path.member(s)) return;
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagNewPos) continue;
      out.path.pos[s] = static_cast<Position>(m.word(0));
      const std::uint64_t flags = m.word(3);
      out.path.pred[s] = (flags & 1) ? m.ref_word(1) : NodeRef{};
      out.path.succ[s] = (flags & 2) ? m.ref_word(2) : NodeRef{};
    }
  });

  // Referee bookkeeping: the new order is read off the final records.
  for (Slot s = 0; s < n; ++s) {
    if (!path.member(s)) continue;
    const auto rank = static_cast<std::size_t>(path.pos[s]);
    out.path.order[rank] = net.slot_of(rec[s].ref);
  }
  for (const Slot s : out.path.order) DGR_CHECK(s != kNoSlot);

  out.skip = build_skiplinks(net, out.path);
}
}  // namespace

}  // namespace dgr::prim
