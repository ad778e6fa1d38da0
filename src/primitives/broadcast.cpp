#include "primitives/broadcast.h"

#include "util/check.h"

namespace dgr::prim {

namespace {
enum Tag : std::uint32_t {
  kTagBcast = 0x50,     // word0 = value
  // 0x51 is detail::kTagAgg (broadcast.h — templated convergecast)
  kTagLeaderUp = 0x52,  // word0 = leader's token climbing to the root
  kTagArgmax = 0x53,    // word0 = best key, word1 = best node's ID
};

// One-word wave payload. An ID value travels as an ID word: the node that
// starts the wave holds it as a bare number (one lookup at the send), and
// every relay forwards the handle it received, which needs none.
[[gnu::always_inline]] inline ncc::Message value_msg(
    const ncc::Ctx& ctx, std::uint32_t tag, std::uint64_t v, bool value_is_id,
    NodeRef v_ref) {
  ncc::Message m = ncc::make_msg(tag);
  if (!value_is_id) return m.push(v);
  if (v_ref) return ctx.push_id(m, v_ref);
  return m.push_id(v);
}
NodeRef value_ref(const ncc::MessageRef& m, bool value_is_id) {
  return value_is_id ? m.ref_word(0) : NodeRef{};
}
}  // namespace

std::vector<std::uint64_t> broadcast_from_root(ncc::Network& net,
                                               const TreeOverlay& tree,
                                               std::uint64_t value,
                                               bool value_is_id) {
  ncc::ScopedRounds scope(net, "broadcast");
  const std::size_t n = net.n();
  std::vector<std::uint64_t> out(n, 0);
  std::vector<std::uint8_t> got(n, 0);
  const std::size_t members = tree.size();
  if (members == 0) return out;

  auto forward = [&](ncc::Ctx& ctx, std::uint64_t v, NodeRef v_ref) {
    const auto& nd = tree.nodes[ctx.slot()];
    const ncc::Message m = value_msg(ctx, kTagBcast, v, value_is_id, v_ref);
    if (nd.left) ctx.send(nd.left, m);
    if (nd.right) ctx.send(nd.right, m);
  };

  // The wave: the root starts; every other member joins the frontier the
  // round its parent's message arrives, forwards, and drops out. Total
  // activations = members, and the drain of the active set is the
  // termination signal (the old per-round full-slot rescan with an atomic
  // `reached` counter is gone).
  net.clear_active();
  net.wake(tree.root);
  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!tree.member(s) || got[s]) return;
    if (s == tree.root) {
      out[s] = value;
      got[s] = 1;
      forward(ctx, value, NodeRef{});
      return;
    }
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagBcast || m.src_ref() != tree.nodes[s].parent)
        continue;
      out[s] = m.word(0);
      got[s] = 1;
      forward(ctx, out[s], value_ref(m, value_is_id));
      break;
    }
  });
  for (Slot s = 0; s < n; ++s)
    DGR_CHECK_MSG(!tree.member(s) || got[s], "broadcast wave stalled");
  return out;
}

std::vector<std::uint64_t> broadcast_from_leader(ncc::Network& net,
                                                 const TreeOverlay& tree,
                                                 Slot leader,
                                                 std::uint64_t value,
                                                 bool value_is_id) {
  ncc::ScopedRounds scope(net, "broadcast");
  DGR_CHECK(tree.member(leader));
  // Up phase: the token climbs from the leader to the root — a frontier of
  // exactly one node per round.
  bool root_has = leader == tree.root;
  std::uint64_t at_root = value;
  bool leader_sent = false;
  net.clear_active();
  if (!root_has) net.wake(leader);
  while (!root_has) {
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!tree.member(s)) return;
      std::uint64_t v = 0;
      NodeRef v_ref;
      bool have = false;
      if (s == leader && !leader_sent) {
        v = value;
        have = true;
        leader_sent = true;
      }
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagLeaderUp) {
          v = m.word(0);
          v_ref = value_ref(m, value_is_id);
          have = true;
        }
      }
      if (!have) return;
      if (s == tree.root) {
        at_root = v;
        root_has = true;  // workers sync on the round barrier before reads
        return;
      }
      ctx.send(tree.nodes[s].parent,
               value_msg(ctx, kTagLeaderUp, v, value_is_id, v_ref));
    });
  }
  return broadcast_from_root(net, tree, at_root, value_is_id);
}

ArgmaxResult aggregate_argmax(ncc::Network& net, const TreeOverlay& tree,
                              const std::vector<std::uint64_t>& key) {
  ncc::ScopedRounds scope(net, "aggregate");
  const std::size_t n = net.n();
  DGR_CHECK(key.size() == n);
  const std::size_t members = tree.size();
  ArgmaxResult result;
  if (members == 0) return result;

  struct Best {
    std::uint64_t key = 0;
    NodeId id = kNoNode;  // tie-break
    NodeRef ref;          // forwarded with the key
  };
  std::vector<Best> best(n);
  std::vector<std::uint8_t> left_done(n, 0), right_done(n, 0), sent(n, 0);
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (!tree.member(s)) continue;
    best[s] = {key[s], net.id_of(s), net.ref_of(s)};
    if (!tree.nodes[s].left) left_done[s] = 1;
    if (!tree.nodes[s].right) right_done[s] = 1;
    if (left_done[s] && right_done[s]) net.wake(s);  // leaves start
  }
  auto better = [](const Best& a, const Best& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.id < b.id;
  };

  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!tree.member(s) || sent[s]) return;
    const auto& nd = tree.nodes[s];
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagArgmax) continue;
      const Best cand{m.word(0), m.id_word(1), m.ref_word(1)};
      if (m.src_ref() == nd.left) left_done[s] = 1;
      else if (m.src_ref() == nd.right) right_done[s] = 1;
      else continue;
      if (better(cand, best[s])) best[s] = cand;
    }
    if (left_done[s] && right_done[s]) {
      sent[s] = 1;
      if (nd.parent) {
        ncc::Message msg = ncc::make_msg(kTagArgmax).push(best[s].key);
        ctx.send(nd.parent, ctx.push_id(msg, best[s].ref));
      }
    }
  });
  DGR_CHECK_MSG(sent[tree.root], "argmax wave stalled");
  result.key = best[tree.root].key;
  result.id = best[tree.root].id;
  // Flood the winner: first its ID, then its key.
  broadcast_from_root(net, tree, result.id, /*value_is_id=*/true);
  broadcast_from_root(net, tree, result.key, /*value_is_id=*/false);
  return result;
}

ncc::NodeId announce_median(ncc::Network& net, const TreeOverlay& tree,
                            const PathOverlay& path) {
  const std::size_t members = path.order.size();
  DGR_CHECK(members > 0);
  const auto median_pos = static_cast<Position>((members - 1) / 2);
  // path.order is the referee's position -> slot table, so the median is a
  // direct lookup (the old code linearly scanned order for the slot whose
  // pos matched). The check still pins that positions were computed.
  const Slot median = path.order[static_cast<std::size_t>(median_pos)];
  DGR_CHECK_MSG(median != kNoSlot && path.pos[median] == median_pos,
                "positions not computed (run build_bbst)");
  broadcast_from_leader(net, tree, median, net.id_of(median),
                        /*value_is_id=*/true);
  return net.id_of(median);
}

}  // namespace dgr::prim
