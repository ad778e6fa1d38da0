#include "realization/implicit_degree.h"

#include <algorithm>

#include "primitives/broadcast.h"
#include "primitives/range_cast.h"
#include "primitives/sort.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dgr::realize {

namespace {

constexpr std::uint32_t kTagStarEdge = 0x100;  // payload = source ID

using prim::PathOverlay;
using prim::SkipOverlay;
using prim::TreeOverlay;

}  // namespace

ImplicitDegreeResult realize_degrees_on_path(
    ncc::Network& net, const prim::PathOverlay& path,
    const prim::SkipOverlay& skip, const prim::TreeOverlay& agg_tree,
    const std::vector<std::uint64_t>& degree, DegreeMode mode) {
  ncc::ScopedRounds total_scope(net, "degree_realization");
  const std::uint64_t start_rounds = net.stats().rounds;
  const std::size_t n = net.n();
  DGR_CHECK(degree.size() == n);
  const std::size_t members = path.order.size();

  ImplicitDegreeResult result;
  result.stored.assign(n, {});
  // The §3 primitives composed below are frontier-driven (active-set
  // rounds); start from a clean frontier so a caller's stray wakes cannot
  // perturb the first wave.
  net.clear_active();

  // Residual degrees; non-members carry 0 so shared aggregations see
  // identity values.
  std::vector<std::uint64_t> residual(n, 0);
  std::uint64_t degree_sum = 0;
  bool too_large = false;
  for (const ncc::Slot s : path.order) {
    residual[s] = degree[s];
    degree_sum += degree[s];
    if (degree[s] >= members) too_large = true;
  }
  // d_i > |path|-1 can never be met by a simple graph on the members; in
  // exact mode this is Unrealizable, and the envelope guarantee is equally
  // impossible, so both modes report failure. In-model every node can test
  // its own degree against the (common-knowledge) member count; one
  // aggregate-OR + broadcast informs everyone. We charge those rounds.
  {
    std::vector<std::uint64_t> flag(n, 0);
    for (const ncc::Slot s : path.order)
      flag[s] = residual[s] >= members ? 1 : 0;
    const std::uint64_t any = prim::aggregate_and_broadcast(
        net, agg_tree, flag, prim::comb_or);
    DGR_CHECK(static_cast<bool>(any) == too_large);
    if (any != 0) {
      result.realizable = false;
      result.rounds = net.stats().rounds - start_rounds;
      return result;
    }
  }

  // Lemma 10 guard: generous multiple of min{√(2m), 2Δ} phases.
  std::uint64_t max_deg = 0;
  for (const ncc::Slot s : path.order)
    max_deg = std::max(max_deg, residual[s]);
  const std::uint64_t phase_guard =
      8 + 4 * std::min<std::uint64_t>(2 * max_deg + 2,
                                      2 * isqrt(degree_sum) + 2);

  // The current sorted path and its skip overlay: the caller's until the
  // first sort, then the latest sort's (the caller keeps its own alive, so
  // no copy is needed).
  prim::SortResult sorted;
  const PathOverlay* cur_path = &path;
  const SkipOverlay* cur_skip = &skip;
  // Node-local underflow flags ("my residual would go negative").
  std::vector<std::uint64_t> underflow(n, 0);
  // Per-phase scratch, hoisted out of the phase loop: each phase rewrites
  // these in full, so reallocating n-sized vectors every phase only churned
  // the allocator.
  std::vector<std::uint64_t> sort_key(n, 0);
  std::vector<std::uint64_t> indicator(n, 0);
  std::vector<std::vector<prim::RangeCastTask>> tasks(n);
  // Retired sources must sort after everything else with the same residual
  // (in particular after never-sourced zero-residual nodes). Otherwise an
  // envelope-mode member range can contain a retired source that is already
  // the new source's neighbour, recreating the edge — a corner the paper's
  // Theorem 13 alteration leaves open. Sorting key: 2·residual + fresh bit.
  std::vector<std::uint8_t> has_sourced(n, 0);

  while (true) {
    DGR_CHECK_MSG(result.phases <= phase_guard,
                  "phase budget exceeded — Lemma 10 violated?");
    ++result.phases;

    // Step 1: sort by residual degree, non-increasing (retired last).
    std::fill(sort_key.begin(), sort_key.end(), 0);
    for (const ncc::Slot s : cur_path->order)
      sort_key[s] = 2 * residual[s] + (has_sourced[s] ? 0 : 1);
    sorted = prim::distributed_sort(net, *cur_path, *cur_skip, sort_key,
                                    /*descending=*/true);
    cur_path = &sorted.path;
    cur_skip = &sorted.skip;

    // Step 2: broadcast δ = current maximum degree.
    const std::uint64_t delta = prim::aggregate_and_broadcast(
        net, agg_tree, residual, prim::comb_max);
    if (delta == 0) break;  // everyone satisfied

    // Step 3: broadcast N = number of nodes with degree δ.
    std::fill(indicator.begin(), indicator.end(), 0);
    for (const ncc::Slot s : cur_path->order)
      indicator[s] = residual[s] == delta ? 1 : 0;
    const std::uint64_t big_n = prim::aggregate_and_broadcast(
        net, agg_tree, indicator, prim::comb_sum);
    const std::uint64_t q =
        std::max<std::uint64_t>(1, big_n / (delta + 1));

    // Step 4: q parallel star groups. Group α (0-based) has its source at
    // position α(δ+1) and members at the next δ positions. Every node
    // derives its role from its own position and the broadcast (δ, N).
    for (auto& t : tasks) t.clear();
    for (const ncc::Slot s : cur_path->order) {
      const auto pos = static_cast<std::uint64_t>(cur_path->pos[s]);
      if (pos % (delta + 1) != 0) continue;
      if (pos / (delta + 1) >= q) continue;
      // Source: multicast my ID to my δ successors, then retire.
      prim::RangeCastTask t;
      t.lo = static_cast<prim::Position>(pos + 1);
      t.hi = static_cast<prim::Position>(pos + delta);
      DGR_CHECK_MSG(t.hi < static_cast<prim::Position>(members),
                    "star group exceeds path (degree too large)");
      t.user_tag = kTagStarEdge;
      t.payload_ref = net.ref_of(s);
      tasks[s].push_back(t);
      residual[s] = 0;  // NIL: the source is satisfied by construction
      has_sourced[s] = 1;
    }

    prim::range_multicast(
        net, *cur_path, *cur_skip, tasks,
        [&](prim::Slot receiver, std::uint32_t user_tag,
            std::uint64_t payload) {
          if (user_tag != kTagStarEdge) return;
          result.stored[receiver].push_back(static_cast<ncc::NodeId>(payload));
          if (residual[receiver] == 0) {
            // Would go negative: not graphic (exact) / absorb (envelope).
            if (mode == DegreeMode::kExact) underflow[receiver] = 1;
          } else {
            --residual[receiver];
          }
        });

    // Step 5: one aggregate-OR tells everyone whether any residual went
    // negative (the paper's Unrealizable broadcast).
    if (mode == DegreeMode::kExact) {
      const std::uint64_t any = prim::aggregate_and_broadcast(
          net, agg_tree, underflow, prim::comb_or);
      if (any != 0) {
        result.realizable = false;
        break;
      }
    }
  }

  // Referee diagnostic (not visible to nodes): edges created twice, in
  // either orientation. Counted once after the phase loop, so the delivery
  // callback stays lock- and lookup-free.
  std::vector<std::uint64_t> edges;
  for (ncc::Slot r = 0; r < n; ++r) {
    for (const ncc::NodeId v : result.stored[r]) {
      const std::uint64_t src = net.slot_of(v);
      edges.push_back((std::min<std::uint64_t>(src, r) << 32) |
                      std::max<std::uint64_t>(src, r));
    }
  }
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 1; i < edges.size(); ++i)
    result.duplicate_edges += edges[i] == edges[i - 1] ? 1 : 0;

  result.rounds = net.stats().rounds - start_rounds;
  return result;
}

ImplicitDegreeResult realize_degrees_implicit(
    ncc::Network& net, const std::vector<std::uint64_t>& degree,
    DegreeMode mode) {
  // Bootstrap: undirect Gk, build the BBST (positions), skip links.
  PathOverlay path = prim::undirect_initial_path(net);
  TreeOverlay tree = prim::build_bbst(net, path);
  SkipOverlay skip = prim::build_skiplinks(net, path);
  return realize_degrees_on_path(net, path, skip, tree, degree, mode);
}

}  // namespace dgr::realize
