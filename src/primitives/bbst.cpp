#include "primitives/bbst.h"

#include <algorithm>
#include <functional>

#include "util/check.h"
#include "util/math_util.h"

namespace dgr::prim {

namespace {

enum Tag : std::uint32_t {
  kTagGrandPred = 0x20,  // word0 = receiver's new level predecessor (ID)
  kTagGrandSucc = 0x21,  // word0 = receiver's new level successor (ID)
  kTagInviteLeft = 0x22,
  kTagInviteRight = 0x23,
  kTagAccept = 0x24,
  kTagUp = 0x25,    // word0 = subtree sum
  kTagDown = 0x26,  // word0 = prefix base for the receiver's subtree
  kTagWarmNoN = 0x27,   // word0 = my pred id or kNoNode, word1 = my succ id
  kTagWarmLeft = 0x28,  // "be my left child"
  kTagWarmRight = 0x29, // "be my right child (and your pred is gone)"
};

std::size_t member_count(const PathOverlay& path) { return path.order.size(); }

}  // namespace

std::size_t TreeOverlay::size() const {
  std::size_t c = 0;
  for (const auto& nd : nodes) c += nd.in_tree ? 1 : 0;
  return c;
}

// ------------------------------------------------------------------------
// Theorem 1: level structure + controlled BFS.
// ------------------------------------------------------------------------

TreeOverlay build_bbst(ncc::Network& net, PathOverlay& path) {
  ncc::ScopedRounds scope(net, "bbst/build");
  const std::size_t n = net.n();
  const std::size_t members = member_count(path);
  TreeOverlay tree;
  tree.nodes.assign(n, {});
  if (members == 0) return tree;

  const int levels = ceil_log2(members);  // L_0 .. L_levels

  // Per-node, per-level path links. lpred[k][s] / lsucc[k][s].
  std::vector<std::vector<NodeRef>> lpred(
      static_cast<std::size_t>(levels) + 1, std::vector<NodeRef>(n));
  auto lsucc = lpred;
  for (Slot s = 0; s < n; ++s) {
    if (!path.member(s)) continue;
    lpred[0][s] = path.pred[s];
    lsucc[0][s] = path.succ[s];
  }

  // Build L: level k links are the grand-links of level k-1. Each round
  // first ingests the grand-link announcements of the previous round, then
  // sends the next level's. One trailing round drains the last level.
  // Frontier: every member starts (level-0 links are initial knowledge);
  // from then on a node is active exactly when an announcement reached it —
  // nodes that fell off the ends of a level stop receiving and drop out.
  wake_members(net, path);
  for (int k = 1; k <= levels + 1; ++k) {
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!path.member(s)) return;
      // Ingest announcements for level k-1 (sent last round).
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagGrandPred) lpred[k - 1][s] = m.ref_word(0);
        else if (m.tag() == kTagGrandSucc) lsucc[k - 1][s] = m.ref_word(0);
      }
      if (k > levels) return;  // drain-only round
      // Announce grand links for level k.
      const NodeRef p = lpred[k - 1][s];
      const NodeRef q = lsucc[k - 1][s];
      if (!p || !q) return;
      ncc::Message to_q = ncc::make_msg(kTagGrandPred);
      ctx.send(q, ctx.push_id(to_q, p));
      ncc::Message to_p = ncc::make_msg(kTagGrandSucc);
      ctx.send(p, ctx.push_id(to_p, q));
    });
  }

  // Controlled BFS (Algorithm 1). The head of the path is the root.
  std::vector<std::uint8_t> in_sp(n, 0), in_ss(n, 0);
  std::vector<NodeRef> invited_left(n), invited_right(n);

  for (Slot s = 0; s < n; ++s) {
    if (path.member(s) && !path.pred[s]) {
      tree.nodes[s].in_tree = true;
      in_sp[s] = in_ss[s] = 1;
      tree.root = s;
    }
  }
  DGR_CHECK_MSG(tree.root != kNoSlot, "path has no head");

  auto ingest_accepts = [&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagAccept) continue;
      if (m.src_ref() == invited_left[s]) tree.nodes[s].left = m.src_ref();
      else if (m.src_ref() == invited_right[s])
        tree.nodes[s].right = m.src_ref();
    }
  };

  // Frontier: the BFS wave carries itself (invitees and accept-receivers
  // are message recipients), plus a self-wake for every tree member that
  // still holds an unspent invitation flag — a node whose level-i link was
  // missing retries at lower levels, so it must stay on the frontier even
  // across rounds in which it neither sends nor receives.
  net.clear_active();
  net.wake(tree.root);
  for (int i = levels - 1; i >= 0; --i) {
    // Invite round.
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!path.member(s)) return;
      ingest_accepts(ctx);
      if (in_sp[s] && lpred[i][s]) {
        invited_left[s] = lpred[i][s];
        ctx.send(lpred[i][s], ncc::make_msg(kTagInviteLeft));
        in_sp[s] = 0;
      }
      if (in_ss[s] && lsucc[i][s]) {
        invited_right[s] = lsucc[i][s];
        ctx.send(lsucc[i][s], ncc::make_msg(kTagInviteRight));
        in_ss[s] = 0;
      }
      if (in_sp[s] || in_ss[s]) ctx.wake();
    });
    // Accept round.
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!path.member(s)) return;
      if (tree.nodes[s].in_tree) {
        if (in_sp[s] || in_ss[s]) ctx.wake();  // invite again next level
        return;
      }
      // The inviter with the smallest ID wins.
      NodeId chosen_id = kNoNode;
      NodeRef chosen;
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() != kTagInviteLeft && m.tag() != kTagInviteRight) continue;
        if (!chosen || m.src() < chosen_id) {
          chosen_id = m.src();
          chosen = m.src_ref();
        }
      }
      if (!chosen) return;
      tree.nodes[s].in_tree = true;
      tree.nodes[s].parent = chosen;
      ctx.send(chosen, ncc::make_msg(kTagAccept));
      in_sp[s] = in_ss[s] = 1;
      ctx.wake();  // newly joined: invite at the next level down
    });
  }
  // Drain the final accepts.
  net.round_active([&](ncc::Ctx& ctx) {
    if (path.member(ctx.slot())) ingest_accepts(ctx);
  });

  DGR_CHECK_MSG(tree.size() == members, "BFS tree does not span the path");

  // Referee: height (for assertions).
  {
    std::function<int(Slot)> depth_of = [&](Slot s) -> int {
      const auto& nd = tree.nodes[s];
      int d = 1;
      if (nd.left) d = std::max(d, 1 + depth_of(net.slot_of(nd.left)));
      if (nd.right) d = std::max(d, 1 + depth_of(net.slot_of(nd.right)));
      return d;
    };
    tree.height = depth_of(tree.root);
  }

  // Corollary 2: inorder numbering = exclusive prefix sum of ones.
  std::vector<std::uint64_t> ones(n, 0);
  for (Slot s = 0; s < n; ++s) ones[s] = path.member(s) ? 1 : 0;
  const PrefixSums ps = tree_prefix_sum(net, tree, ones);
  for (Slot s = 0; s < n; ++s) {
    if (!path.member(s)) continue;
    tree.nodes[s].inorder = static_cast<Position>(ps.exclusive[s]);
    tree.nodes[s].subtree_size = ps.subtree[s];
    path.pos[s] = tree.nodes[s].inorder;
  }
  return tree;
}

// ------------------------------------------------------------------------
// Two-phase prefix sums (convergecast + top-down distribution).
// ------------------------------------------------------------------------

PrefixSums tree_prefix_sum(ncc::Network& net, const TreeOverlay& tree,
                           const std::vector<std::uint64_t>& value) {
  ncc::ScopedRounds scope(net, "bbst/prefix_sum");
  const std::size_t n = net.n();
  DGR_CHECK(value.size() == n);

  PrefixSums out;
  out.exclusive.assign(n, 0);
  out.subtree.assign(n, 0);

  std::vector<std::uint64_t> left_sum(n, 0), right_sum(n, 0);
  std::vector<std::uint8_t> left_done(n, 0), right_done(n, 0), sent_up(n, 0),
      got_base(n, 0);
  std::size_t members = 0;
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (!tree.member(s)) continue;
    ++members;
    if (!tree.nodes[s].left) left_done[s] = 1;
    if (!tree.nodes[s].right) right_done[s] = 1;
    if (left_done[s] && right_done[s]) net.wake(s);  // leaves start the wave
  }
  if (members == 0) return out;

  // Phase 1: subtree sums climb to the root. A node joins the frontier the
  // round its last child's sum arrives; the wave drains when the root sent
  // (total activations O(members), rounds O(height)).
  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!tree.member(s) || sent_up[s]) return;
    const auto& nd = tree.nodes[s];
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagUp) continue;
      if (m.src_ref() == nd.left) {
        left_sum[s] = m.word(0);
        left_done[s] = 1;
      } else if (m.src_ref() == nd.right) {
        right_sum[s] = m.word(0);
        right_done[s] = 1;
      }
    }
    if (left_done[s] && right_done[s]) {
      out.subtree[s] = value[s] + left_sum[s] + right_sum[s];
      sent_up[s] = 1;
      if (nd.parent)
        ctx.send(nd.parent, ncc::make_msg(kTagUp).push(out.subtree[s]));
    }
  });
  DGR_CHECK_MSG(sent_up[tree.root], "prefix-sum convergecast stalled");

  // Phase 2: prefix bases descend from the root.
  net.clear_active();
  net.wake(tree.root);
  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!tree.member(s) || got_base[s]) return;
    const auto& nd = tree.nodes[s];
    std::uint64_t base = 0;
    bool have = false;
    if (s == tree.root) {
      have = true;
    } else {
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagDown && m.src_ref() == nd.parent) {
          base = m.word(0);
          have = true;
        }
      }
    }
    if (!have) return;
    got_base[s] = 1;
    out.exclusive[s] = base + left_sum[s];
    if (nd.left) ctx.send(nd.left, ncc::make_msg(kTagDown).push(base));
    if (nd.right) {
      ctx.send(nd.right,
               ncc::make_msg(kTagDown).push(base + left_sum[s] + value[s]));
    }
  });
  for (Slot s = 0; s < n; ++s)
    DGR_CHECK_MSG(!tree.member(s) || got_base[s],
                  "prefix-sum distribution stalled");
  return out;
}

// ------------------------------------------------------------------------
// Warm-up tree (Figure 1).
// ------------------------------------------------------------------------

TreeOverlay build_warmup_tree(ncc::Network& net, const PathOverlay& path) {
  ncc::ScopedRounds scope(net, "bbst/warmup");
  const std::size_t n = net.n();
  TreeOverlay tree;
  tree.nodes.assign(n, {});
  const std::size_t members = member_count(path);
  if (members == 0) return tree;

  std::vector<NodeRef> cur_pred = path.pred;
  std::vector<NodeRef> cur_succ = path.succ;
  std::vector<NodeRef> gp(n), gs(n);
  std::vector<std::uint8_t> active(n, 0);
  for (Slot s = 0; s < n; ++s) {
    if (path.member(s)) {
      active[s] = 1;
      tree.nodes[s].in_tree = true;
      if (!path.pred[s]) tree.root = s;
    }
  }

  // Frontier: a node stays on it (self-wake) for as long as its own
  // `active` flag holds — heads retire in round B and stop waking, and the
  // whole construction ends when the frontier drains. The old atomic
  // active-node counter is gone.
  wake_members(net, path);
  const std::size_t iter_budget = 2 * ceil_log2(members) + 4;
  std::size_t iter = 0;
  while (net.has_active()) {
    DGR_CHECK_MSG(iter++ <= iter_budget, "warm-up tree stalled");
    // Round A: neighbour-of-neighbour exchange.
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!active[s]) return;
      gp[s] = gs[s] = NodeRef{};
      auto m = ncc::make_msg(kTagWarmNoN);
      // Always two words; kNoNode is encoded as a plain word.
      if (cur_pred[s]) ctx.push_id(m, cur_pred[s]); else m.push(kNoNode);
      if (cur_succ[s]) ctx.push_id(m, cur_succ[s]); else m.push(kNoNode);
      if (cur_pred[s]) ctx.send(cur_pred[s], m);
      if (cur_succ[s]) ctx.send(cur_succ[s], m);
      ctx.wake();
    });
    // Round B: heads adopt children and retire; everyone rewires.
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!active[s]) return;
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() != kTagWarmNoN) continue;
        // A plain word 0 stands for "none".
        auto link = [&m](std::size_t i) {
          return (m.id_mask() & (1u << i)) ? m.ref_word(i) : NodeRef{};
        };
        if (m.src_ref() == cur_pred[s]) gp[s] = link(0);
        else if (m.src_ref() == cur_succ[s]) gs[s] = link(1);
      }
      if (!cur_pred[s]) {
        // Head: left child = successor, right child = grand-successor.
        if (cur_succ[s]) {
          tree.nodes[s].left = cur_succ[s];
          ctx.send(cur_succ[s], ncc::make_msg(kTagWarmLeft));
        }
        if (gs[s]) {
          tree.nodes[s].right = gs[s];
          ctx.send(gs[s], ncc::make_msg(kTagWarmRight));
        }
        active[s] = 0;  // retires: no self-wake, drops off the frontier
      } else {
        cur_pred[s] = gp[s];
        cur_succ[s] = gs[s];
        ctx.wake();
      }
    });
    // Round C: children record their parent; new heads drop dead preds.
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!active[s]) return;
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagWarmLeft || m.tag() == kTagWarmRight) {
          tree.nodes[s].parent = m.src_ref();
          cur_pred[s] = NodeRef{};
        }
      }
      ctx.wake();
    });
  }

  std::function<int(Slot)> depth_of = [&](Slot s) -> int {
    const auto& nd = tree.nodes[s];
    int d = 1;
    if (nd.left) d = std::max(d, 1 + depth_of(net.slot_of(nd.left)));
    if (nd.right) d = std::max(d, 1 + depth_of(net.slot_of(nd.right)));
    return d;
  };
  if (tree.root != kNoSlot) tree.height = depth_of(tree.root);
  return tree;
}

// ------------------------------------------------------------------------
// Referee validation.
// ------------------------------------------------------------------------

bool validate_tree(const ncc::Network& net, const TreeOverlay& tree,
                   const PathOverlay& path, bool require_search_order) {
  const std::size_t members = member_count(path);
  if (tree.size() != members) return false;
  if (members == 0) return true;
  if (tree.root == kNoSlot) return false;

  // Parent/child pointers must be mutually consistent and acyclic, and the
  // height must satisfy Theorem 1's bound.
  std::size_t visited = 0;
  bool ok = true;
  std::vector<Slot> inorder_slots;
  std::function<void(Slot, int)> walk = [&](Slot s, int depth) {
    if (!ok) return;
    ++visited;
    if (visited > members) {  // cycle guard
      ok = false;
      return;
    }
    const auto& nd = tree.nodes[s];
    if (nd.left) {
      const Slot l = net.slot_of(nd.left);
      if (tree.nodes[l].parent != net.ref_of(s)) ok = false;
      walk(l, depth + 1);
    }
    inorder_slots.push_back(s);
    if (nd.right) {
      const Slot r = net.slot_of(nd.right);
      if (tree.nodes[r].parent != net.ref_of(s)) ok = false;
      walk(r, depth + 1);
    }
  };
  walk(tree.root, 1);
  if (!ok || visited != members) return false;
  if (tree.height > ceil_log2(members) + 1) return false;
  if (require_search_order && inorder_slots != path.order) return false;
  return true;
}

}  // namespace dgr::prim
