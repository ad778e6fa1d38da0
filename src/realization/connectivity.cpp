#include "realization/connectivity.h"

#include <algorithm>
#include <unordered_set>

#include "primitives/bbst.h"
#include "primitives/broadcast.h"
#include "primitives/collection.h"
#include "primitives/ncc1.h"
#include "primitives/path.h"
#include "primitives/range_cast.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "realization/implicit_degree.h"
#include "util/check.h"

namespace dgr::realize {

namespace {

constexpr std::uint32_t kTagConnEdge = 0x130;    // payload = source ID
constexpr std::uint32_t kTagConnNotify = 0x131;  // explicitization

using prim::PathOverlay;
using prim::SkipOverlay;
using prim::TreeOverlay;

/// Shared ρ <= n-1 feasibility test (aggregate-OR + broadcast).
bool thresholds_feasible(ncc::Network& net, const TreeOverlay& tree,
                         const std::vector<std::uint64_t>& rho) {
  const std::size_t n = net.n();
  std::vector<std::uint64_t> flag(n, 0);
  for (ncc::Slot s = 0; s < n; ++s) flag[s] = rho[s] >= n ? 1 : 0;
  return prim::aggregate_and_broadcast(net, tree, flag, prim::comb_or) == 0;
}

}  // namespace

ConnectivityResult realize_connectivity_ncc1(
    ncc::Network& net, const std::vector<std::uint64_t>& rho) {
  ncc::ScopedRounds scope(net, "connectivity_ncc1");
  const std::uint64_t start = net.stats().rounds;
  const std::size_t n = net.n();
  DGR_CHECK(rho.size() == n);

  ConnectivityResult result;
  result.stored.assign(n, {});
  net.clear_active();  // frontier hygiene: the waves below seed their own
  const TreeOverlay tree = prim::common_knowledge_tree(net);

  if (!thresholds_feasible(net, tree, rho)) {
    result.realizable = false;
    result.rounds = net.stats().rounds - start;
    return result;
  }
  if (n == 1) {
    result.rounds = net.stats().rounds - start;
    return result;
  }

  // Step 1: find the hub w of maximum ρ (everyone learns w's ID).
  const prim::ArgmaxResult w = prim::aggregate_argmax(net, tree, rho);
  result.hub = w.id;

  // Step 2 (zero rounds): every v != w locally picks
  // X_v = {w} ∪ {ρ(v)-1 smallest IDs != v, w}, using the common-knowledge
  // sorted ID list (Ctx::all_ids in NCC1).
  const std::vector<ncc::NodeId>& sorted_ids = net.sorted_ids();
  for (ncc::Slot s = 0; s < n; ++s) {
    const ncc::NodeId me = net.id_of(s);
    if (me == w.id || rho[s] == 0) continue;
    auto& edges = result.stored[s];
    edges.push_back(w.id);
    std::uint64_t need = rho[s] - 1;
    for (std::size_t i = 0; i < n && need > 0; ++i) {
      const ncc::NodeId cand = sorted_ids[i];
      if (cand == me || cand == w.id) continue;
      edges.push_back(cand);
      --need;
    }
    DGR_CHECK_MSG(need == 0, "ρ(v) <= n-1 guarantees enough partners");
  }

  result.rounds = net.stats().rounds - start;
  return result;
}

ConnectivityResult realize_connectivity_ncc0(
    ncc::Network& net, const std::vector<std::uint64_t>& rho) {
  ncc::ScopedRounds scope(net, "connectivity_ncc0");
  const std::uint64_t start = net.stats().rounds;
  const std::size_t n = net.n();
  DGR_CHECK(rho.size() == n);

  ConnectivityResult result;
  result.stored.assign(n, {});
  result.adjacency.assign(n, {});
  net.clear_active();  // frontier hygiene: the waves below seed their own

  // Bootstrap structures on Gk.
  PathOverlay path = prim::undirect_initial_path(net);
  TreeOverlay agg_tree = prim::build_bbst(net, path);
  SkipOverlay skip = prim::build_skiplinks(net, path);

  if (!thresholds_feasible(net, agg_tree, rho)) {
    result.realizable = false;
    result.rounds = net.stats().rounds - start;
    return result;
  }
  if (n == 1) {
    result.rounds = net.stats().rounds - start;
    return result;
  }

  // Step 1: sort by ρ, non-increasing; broadcast d0 = ρ(x_0).
  prim::SortResult sorted =
      prim::distributed_sort(net, path, skip, rho, /*descending=*/true);
  const PathOverlay& sp = sorted.path;
  const std::uint64_t d0 =
      prim::aggregate_and_broadcast(net, agg_tree, rho, prim::comb_max);

  // Step 2 (phase 1): the first d0+1 sorted nodes satisfy their ρ values
  // with a hub-and-window construction. x_0 (max ρ) floods its ID; every
  // member x_i (1 <= i <= d0) links to x_0 plus a cyclic window of ρ_i - 1
  // further members. deg(x_i) >= ρ_i holds by construction, every window
  // member is adjacent to x_0, so Conn(x_i, x_0) >= ρ_i by ρ_i disjoint
  // paths (direct edge + 2-hop paths through the window, as in §6.1's NCC1
  // argument — realized here in NCC0 via positions). Bidirectional window
  // overlaps may double-store an edge; explicitization dedupes (the degree
  // guarantee is unaffected: a node's own window is always distinct).
  const std::uint64_t member_count = std::min<std::uint64_t>(d0 + 1, n);
  const ncc::Slot hub_slot = sp.order.front();
  prim::broadcast_from_leader(net, agg_tree, hub_slot, net.id_of(hub_slot),
                              /*value_is_id=*/true);
  const ncc::NodeId hub_id = net.id_of(hub_slot);
  std::vector<std::vector<prim::RangeCastTask>> win_tasks(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    if (pos < 1 || pos >= member_count || rho[s] == 0) continue;
    result.stored[s].push_back(hub_id);
    if (rho[s] < 2) continue;
    // Cyclic window over member positions [1, d0]: raw span
    // [pos+1, pos+rho-1], wrapped back into [1, d0].
    const std::uint64_t raw_hi = pos + rho[s] - 1;
    const std::uint64_t hi_a = std::min<std::uint64_t>(raw_hi, d0);
    if (hi_a >= pos + 1) {
      prim::RangeCastTask t;
      t.lo = static_cast<prim::Position>(pos + 1);
      t.hi = static_cast<prim::Position>(hi_a);
      t.user_tag = kTagConnEdge;
      t.payload_ref = net.ref_of(s);
      win_tasks[s].push_back(t);
    }
    if (raw_hi > d0) {
      const std::uint64_t wrap_hi = raw_hi - d0;
      DGR_CHECK_MSG(wrap_hi < pos, "window wraps past itself");
      prim::RangeCastTask t;
      t.lo = 1;
      t.hi = static_cast<prim::Position>(wrap_hi);
      t.user_tag = kTagConnEdge;
      t.payload_ref = net.ref_of(s);
      win_tasks[s].push_back(t);
    }
  }
  prim::range_multicast(net, sp, sorted.skip, win_tasks,
                        [&](prim::Slot receiver, std::uint32_t user_tag,
                            std::uint64_t payload) {
                          if (user_tag == kTagConnEdge)
                            result.stored[receiver].push_back(
                                static_cast<ncc::NodeId>(payload));
                        });

  // Step 3 (phase 2): every x_i with i >= d0+1 multicasts its ID to its
  // ρ(x_i) immediate predecessors on the sorted path.
  std::vector<std::vector<prim::RangeCastTask>> tasks(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    const auto pos = static_cast<std::uint64_t>(sp.pos[s]);
    if (pos < member_count || rho[s] == 0) continue;
    prim::RangeCastTask t;
    t.lo = static_cast<prim::Position>(pos - rho[s]);
    t.hi = static_cast<prim::Position>(pos - 1);
    t.user_tag = kTagConnEdge;
    t.payload_ref = net.ref_of(s);
    tasks[s].push_back(t);
  }
  prim::range_multicast(net, sp, sorted.skip, tasks,
                        [&](prim::Slot receiver, std::uint32_t user_tag,
                            std::uint64_t payload) {
                          if (user_tag == kTagConnEdge)
                            result.stored[receiver].push_back(
                                static_cast<ncc::NodeId>(payload));
                        });

  // Step 4: make everything explicit — each aware side notifies the other
  // (this subsumes the predecessors' reply broadcasts in Algorithm 6).
  // Window overlaps can have stored the same edge on both sides; after the
  // exchange, both endpoints see both directions (incoming src ∈ my stored
  // list), and the larger-ID endpoint silently drops its copy so the
  // implicit edge set is canonical. Purely local, zero extra rounds.
  std::vector<std::vector<prim::DirectSend>> batch(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    for (const ncc::NodeId v : result.stored[s])
      batch[s].push_back({v, kTagConnNotify, 0, false});
  }
  std::vector<std::vector<ncc::NodeId>> incoming(n);
  prim::direct_exchange(net, batch,
                        [&](prim::Slot receiver, ncc::NodeId src,
                            std::uint32_t user_tag, std::uint64_t) {
                          if (user_tag == kTagConnNotify)
                            incoming[receiver].push_back(src);
                        });
  for (ncc::Slot s = 0; s < n; ++s) {
    const ncc::NodeId me = net.id_of(s);
    // Membership probe only (contains). det-ok: unordered_set
    std::unordered_set<ncc::NodeId> in_set(incoming[s].begin(),
                                           incoming[s].end());
    // Drop my copy of double-stored edges when I have the larger ID.
    auto& mine = result.stored[s];
    mine.erase(std::remove_if(mine.begin(), mine.end(),
                              [&](ncc::NodeId u) {
                                return in_set.contains(u) && me > u;
                              }),
               mine.end());
    // Explicit adjacency = full neighbour set (each neighbour once).
    // Dedupe bag; the extraction below is sorted before anyone reads it,
    // so hash order dies right here. det-ok: unordered_set
    std::unordered_set<ncc::NodeId> adj(mine.begin(), mine.end());
    adj.insert(in_set.begin(), in_set.end());
    result.adjacency[s].assign(adj.begin(), adj.end());
    std::sort(result.adjacency[s].begin(), result.adjacency[s].end());
  }

  result.rounds = net.stats().rounds - start;
  return result;
}

std::vector<std::uint64_t> rho_from_sigma(
    const std::vector<std::vector<std::uint64_t>>& sigma) {
  const std::size_t n = sigma.size();
  std::vector<std::uint64_t> rho(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    DGR_CHECK(sigma[v].size() == n);
    for (std::size_t u = 0; u < n; ++u) {
      if (u == v) continue;
      DGR_CHECK_MSG(sigma[v][u] == sigma[u][v], "σ must be symmetric");
      rho[v] = std::max(rho[v], sigma[v][u]);
    }
  }
  return rho;
}

ConnectivityResult realize_connectivity_matrix_ncc0(
    ncc::Network& net, const std::vector<std::vector<std::uint64_t>>& sigma) {
  // The ρ reduction is node-local (each node holds its own σ vector).
  return realize_connectivity_ncc0(net, rho_from_sigma(sigma));
}

ConnectivityResult realize_connectivity_matrix_ncc1(
    ncc::Network& net, const std::vector<std::vector<std::uint64_t>>& sigma) {
  return realize_connectivity_ncc1(net, rho_from_sigma(sigma));
}

}  // namespace dgr::realize
