#include "realization/tree_realization.h"

#include <algorithm>

#include "primitives/bbst.h"
#include "primitives/broadcast.h"
#include "primitives/path.h"
#include "primitives/range_cast.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "util/check.h"

namespace dgr::realize {

namespace {

constexpr std::uint32_t kTagTreeEdge = 0x120;  // payload = parent/spine ID

using prim::PathOverlay;
using prim::SkipOverlay;
using prim::TreeOverlay;

struct TreeSetup {
  bool realizable = true;
  PathOverlay sorted_path;      // sorted non-increasing by degree
  SkipOverlay sorted_skip;
  TreeOverlay agg_tree;         // spans everyone; reused for aggregation
  TreeOverlay sorted_bbst;      // BBST over the sorted path (prefix sums)
};

// Shared preamble of Algorithms 4 and 5: undirect Gk, build structures,
// verify Σd = 2(n-1) and min degree >= 1 (for n >= 2), sort by degree.
// The primitives composed here drive the engine's active-set rounds; the
// preamble starts from a clean frontier so stray referee wakes left by a
// caller cannot leak into the first wave.
TreeSetup tree_setup(ncc::Network& net,
                     const std::vector<std::uint64_t>& degree) {
  const std::size_t n = net.n();
  DGR_CHECK(degree.size() == n);
  net.clear_active();

  TreeSetup setup;
  PathOverlay path = prim::undirect_initial_path(net);
  setup.agg_tree = prim::build_bbst(net, path);
  SkipOverlay skip = prim::build_skiplinks(net, path);

  // Realizability test (aggregate + broadcast, Theorem 4).
  const std::uint64_t sum = prim::aggregate_and_broadcast(
      net, setup.agg_tree, degree, prim::comb_sum);
  // A tree degree lies in [1, n-1]. The range flag also catches a degree
  // near UINT64_MAX whose wrapped sum lands on 2(n-1).
  std::vector<std::uint64_t> bad_flag(n, 0);
  for (ncc::Slot s = 0; s < n; ++s)
    bad_flag[s] = degree[s] == 0 || degree[s] >= n ? 1 : 0;
  const std::uint64_t any_bad = prim::aggregate_and_broadcast(
      net, setup.agg_tree, bad_flag, prim::comb_or);
  const bool ok = n == 1 ? degree[0] == 0
                         : (sum == 2 * (static_cast<std::uint64_t>(n) - 1) &&
                            any_bad == 0);
  if (!ok) {
    setup.realizable = false;
    return setup;
  }

  prim::SortResult sorted =
      prim::distributed_sort(net, path, skip, degree, /*descending=*/true);
  setup.sorted_path = std::move(sorted.path);
  setup.sorted_skip = std::move(sorted.skip);
  // Prefix sums follow sorted order, so they need a BBST whose inorder is
  // the sorted path.
  setup.sorted_bbst = prim::build_bbst(net, setup.sorted_path);
  return setup;
}

}  // namespace

TreeRealizationResult realize_tree_caterpillar(
    ncc::Network& net, const std::vector<std::uint64_t>& degree) {
  ncc::ScopedRounds scope(net, "tree_caterpillar");
  const std::uint64_t start = net.stats().rounds;
  const std::size_t n = net.n();
  TreeRealizationResult result;
  result.stored.assign(n, {});

  TreeSetup setup = tree_setup(net, degree);
  if (!setup.realizable) {
    result.realizable = false;
    result.rounds = net.stats().rounds - start;
    return result;
  }
  if (n == 1) {
    result.rounds = net.stats().rounds - start;
    return result;
  }

  const PathOverlay& sp = setup.sorted_path;

  // k = number of non-leaves (degree > 1), made common knowledge.
  std::vector<std::uint64_t> nonleaf(n, 0);
  for (ncc::Slot s = 0; s < n; ++s) nonleaf[s] = degree[s] > 1 ? 1 : 0;
  const std::uint64_t k = prim::aggregate_and_broadcast(
      net, setup.agg_tree, nonleaf, prim::comb_sum);

  if (k == 0) {
    // Only n == 2 reaches here (two degree-1 nodes): join the path ends.
    DGR_CHECK(n == 2);
    for (ncc::Slot s = 0; s < n; ++s)
      if (sp.pos[s] == 0) result.stored[s].push_back(net.id_of(sp.succ[s]));
    result.rounds = net.stats().rounds - start;
    return result;
  }

  // Spine: positions 0..k (position k is the first leaf). The lower side
  // stores each spine edge; neighbours' IDs are already known from the path.
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    if (pos < k) result.stored[s].push_back(net.id_of(sp.succ[s]));
  }

  // Exclusive prefix sums of (d - 2) over non-leaf positions give each
  // non-leaf its leaf block: x_0 takes [k+1, k+d_0-1]; x_i (i>=1) takes
  // [k+2+E_i, k+2+E_i+d_i-3] where E_i = Σ_{j<i}(d_j - 2).
  std::vector<std::uint64_t> excess(n, 0);
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    if (pos < k) excess[s] = degree[s] - 2;
  }
  const prim::PrefixSums ps =
      prim::tree_prefix_sum(net, setup.sorted_bbst, excess);

  std::vector<std::vector<prim::RangeCastTask>> tasks(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    if (pos >= k) continue;
    std::uint64_t lo, count;
    if (pos == 0) {
      lo = k + 1;
      count = degree[s] - 1;
    } else {
      lo = k + 2 + ps.exclusive[s];
      count = degree[s] - 2;
    }
    if (count == 0) continue;
    prim::RangeCastTask t;
    t.lo = static_cast<prim::Position>(lo);
    t.hi = static_cast<prim::Position>(lo + count - 1);
    DGR_CHECK_MSG(t.hi < static_cast<prim::Position>(n),
                  "caterpillar leaf block out of range");
    t.user_tag = kTagTreeEdge;
    t.payload_ref = net.ref_of(s);
    tasks[s].push_back(t);
  }
  prim::range_multicast(net, sp, setup.sorted_skip, tasks,
                        [&](prim::Slot receiver, std::uint32_t user_tag,
                            std::uint64_t payload) {
                          if (user_tag == kTagTreeEdge)
                            result.stored[receiver].push_back(
                                static_cast<ncc::NodeId>(payload));
                        });

  result.rounds = net.stats().rounds - start;
  return result;
}

TreeRealizationResult realize_tree_greedy(
    ncc::Network& net, const std::vector<std::uint64_t>& degree) {
  ncc::ScopedRounds scope(net, "tree_greedy");
  const std::uint64_t start = net.stats().rounds;
  const std::size_t n = net.n();
  TreeRealizationResult result;
  result.stored.assign(n, {});

  TreeSetup setup = tree_setup(net, degree);
  if (!setup.realizable) {
    result.realizable = false;
    result.rounds = net.stats().rounds - start;
    return result;
  }
  if (n == 1) {
    result.rounds = net.stats().rounds - start;
    return result;
  }

  const PathOverlay& sp = setup.sorted_path;

  // Exclusive prefix sums of (d - 1): x_0's children are positions
  // [1, d_0]; x_i (i >= 1) adopts [E_i + 2, E_i + d_i] where
  // E_i = Σ_{j<i}(d_j - 1). Leaves adopt nothing (d_i - 1 = 0).
  std::vector<std::uint64_t> excess(n, 0);
  for (ncc::Slot s = 0; s < n; ++s) excess[s] = degree[s] - 1;
  const prim::PrefixSums ps =
      prim::tree_prefix_sum(net, setup.sorted_bbst, excess);

  std::vector<std::vector<prim::RangeCastTask>> tasks(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    std::uint64_t lo, count;
    if (pos == 0) {
      lo = 1;
      count = degree[s];
    } else {
      lo = ps.exclusive[s] + 2;
      count = degree[s] - 1;
    }
    if (count == 0) continue;
    prim::RangeCastTask t;
    t.lo = static_cast<prim::Position>(lo);
    t.hi = static_cast<prim::Position>(lo + count - 1);
    DGR_CHECK_MSG(t.hi < static_cast<prim::Position>(n),
                  "greedy child block out of range");
    t.user_tag = kTagTreeEdge;
    t.payload_ref = net.ref_of(s);
    tasks[s].push_back(t);
  }
  prim::range_multicast(net, sp, setup.sorted_skip, tasks,
                        [&](prim::Slot receiver, std::uint32_t user_tag,
                            std::uint64_t payload) {
                          if (user_tag == kTagTreeEdge)
                            result.stored[receiver].push_back(
                                static_cast<ncc::NodeId>(payload));
                        });

  result.rounds = net.stats().rounds - start;
  return result;
}

}  // namespace dgr::realize
