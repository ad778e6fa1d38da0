// Global computational primitives over a tree overlay (paper §3.2.1,
// Theorem 4): broadcast from the root or from an arbitrary leader, and
// aggregation of a distributive function to the root (optionally echoed back
// to everyone). All run in O(height) = O(log n) rounds, deterministically.
//
// Every primitive here is frontier-driven: it seeds the engine's active set
// (net.wake) with the slots that act first — the root for a broadcast, the
// ready leaves for an aggregation — and then drives net.round_active until
// the frontier drains. A wave therefore costs O(members) total slot
// activations instead of O(members · height) dense dispatches, while the
// transcript stays identical to a dense run (see network.h).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ncc/network.h"
#include "primitives/bbst.h"
#include "util/check.h"

namespace dgr::prim {

/// Ready-made distributive aggregate combiners (the model allows unbounded
/// local computation). Each is a distinct empty function-object type so the
/// templated aggregation paths inline the combine instead of paying an
/// indirect call per message; `prim::comb_sum(a, b)` reads like a free
/// function call.
struct CombSum {
  std::uint64_t operator()(std::uint64_t a, std::uint64_t b) const noexcept {
    return a + b;
  }
};
struct CombMax {
  std::uint64_t operator()(std::uint64_t a, std::uint64_t b) const noexcept {
    return a > b ? a : b;
  }
};
struct CombMin {
  std::uint64_t operator()(std::uint64_t a, std::uint64_t b) const noexcept {
    return a < b ? a : b;
  }
};
struct CombOr {
  std::uint64_t operator()(std::uint64_t a, std::uint64_t b) const noexcept {
    return a | b;
  }
};
inline constexpr CombSum comb_sum{};
inline constexpr CombMax comb_max{};
inline constexpr CombMin comb_min{};
inline constexpr CombOr comb_or{};

/// Root floods `value` (one word; flag it as an ID with value_is_id so
/// receivers learn it). Returns the per-slot received value (members only).
std::vector<std::uint64_t> broadcast_from_root(ncc::Network& net,
                                               const TreeOverlay& tree,
                                               std::uint64_t value,
                                               bool value_is_id = false);

/// Convergecast of f over per-slot values; the root ends up with
/// f(all member values), which is returned. `f` is any callable
/// (uint64, uint64) -> uint64; the combine is inlined.
template <typename F>
std::uint64_t aggregate_to_root(ncc::Network& net, const TreeOverlay& tree,
                                const std::vector<std::uint64_t>& value,
                                F&& f);

/// Aggregation followed by a root broadcast: every member learns f(all).
/// Returns the aggregate. O(log n) rounds total.
template <typename F>
std::uint64_t aggregate_and_broadcast(ncc::Network& net,
                                      const TreeOverlay& tree,
                                      const std::vector<std::uint64_t>& value,
                                      F&& f, bool value_is_id = false);

/// Theorem 4's designated-leader broadcast: the leader's token climbs to the
/// root along parent pointers, then floods down. 2·height rounds.
std::vector<std::uint64_t> broadcast_from_leader(ncc::Network& net,
                                                 const TreeOverlay& tree,
                                                 Slot leader,
                                                 std::uint64_t value,
                                                 bool value_is_id = false);

/// Argmax aggregation: every member contributes (key, its own ID); the root
/// learns the ID of a node with the maximum key (smallest ID on ties) and
/// floods it. Every member ends up knowing the winner's ID and key.
struct ArgmaxResult {
  std::uint64_t key = 0;
  ncc::NodeId id = ncc::kNoNode;  ///< winner (learned by every member)
};
ArgmaxResult aggregate_argmax(ncc::Network& net, const TreeOverlay& tree,
                              const std::vector<std::uint64_t>& key);

/// Corollary 2's second half: the median node of the path announces itself,
/// and its ID becomes common knowledge in O(log n) rounds. The median knows
/// it is the median from its position and the (common knowledge) length.
ncc::NodeId announce_median(ncc::Network& net, const TreeOverlay& tree,
                            const PathOverlay& path);

// --- templated implementation -------------------------------------------

namespace detail {
/// Wire tag of the convergecast payload (word0 = partial aggregate).
inline constexpr std::uint32_t kTagAgg = 0x51;
}  // namespace detail

// Frontier-driven convergecast: the wave starts at the ready leaves and a
// node climbs onto it the round after its last child reports. Termination
// is "active set empty" — no spin counter, no per-round full-slot rescans.
template <typename F>
std::uint64_t aggregate_to_root(ncc::Network& net, const TreeOverlay& tree,
                                const std::vector<std::uint64_t>& value,
                                F&& f) {
  ncc::ScopedRounds scope(net, "aggregate");
  const std::size_t n = net.n();
  DGR_CHECK(value.size() == n);
  if (tree.size() == 0) return 0;

  std::vector<std::uint64_t> partial(n, 0);
  std::vector<std::uint8_t> left_done(n, 0), right_done(n, 0), sent(n, 0);
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (!tree.member(s)) continue;
    partial[s] = value[s];
    if (!tree.nodes[s].left) left_done[s] = 1;
    if (!tree.nodes[s].right) right_done[s] = 1;
    // Leaves know they start the wave (their state says "all children
    // reported"); the referee wake is the in-model self-start.
    if (left_done[s] && right_done[s]) net.wake(s);
  }

  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (!tree.member(s) || sent[s]) return;
    const auto& nd = tree.nodes[s];
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != detail::kTagAgg) continue;
      if (m.src_ref() == nd.left) {
        partial[s] = f(partial[s], m.word(0));
        left_done[s] = 1;
      } else if (m.src_ref() == nd.right) {
        partial[s] = f(partial[s], m.word(0));
        right_done[s] = 1;
      }
    }
    if (left_done[s] && right_done[s]) {
      sent[s] = 1;
      if (nd.parent)
        ctx.send(nd.parent, ncc::make_msg(detail::kTagAgg).push(partial[s]));
    }
  });
  DGR_CHECK_MSG(sent[tree.root],
                "aggregation wave stalled before reaching the root");
  return partial[tree.root];
}

template <typename F>
std::uint64_t aggregate_and_broadcast(ncc::Network& net,
                                      const TreeOverlay& tree,
                                      const std::vector<std::uint64_t>& value,
                                      F&& f, bool value_is_id) {
  const std::uint64_t agg =
      aggregate_to_root(net, tree, value, std::forward<F>(f));
  broadcast_from_root(net, tree, agg, value_is_id);
  return agg;
}

}  // namespace dgr::prim
