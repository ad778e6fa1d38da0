// Dinic edge-connectivity vs. known topologies and a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/maxflow.h"
#include "seq/connectivity_baseline.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::graph {
namespace {

// Brute-force oracle: minimum s-t cut by enumerating edge subsets (tiny
// graphs only). Conn(s,t) = min #edges whose removal disconnects s from t.
std::uint64_t brute_force_conn(const Graph& g, Vertex s, Vertex t) {
  const auto& edges = g.edges();
  const std::size_t m = edges.size();
  for (std::uint64_t cut_size = 0; cut_size <= m; ++cut_size) {
    // Try all subsets of exactly cut_size edges.
    std::vector<bool> pick(m, false);
    std::fill(pick.end() - static_cast<std::ptrdiff_t>(cut_size), pick.end(),
              true);
    do {
      Graph h(g.n());
      for (std::size_t i = 0; i < m; ++i)
        if (!pick[i]) h.add_edge(edges[i].first, edges[i].second);
      const auto dist = h.bfs_distances(s);
      if (dist[t] < 0) return cut_size;
    } while (std::next_permutation(pick.begin(), pick.end()));
  }
  return m + 1;  // unreachable
}

TEST(MaxFlow, CompleteGraph) {
  const std::size_t n = 7;
  Graph g(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) g.add_edge(u, v);
  EdgeConnectivity solver(g);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) EXPECT_EQ(solver.query(u, v), n - 1);
}

TEST(MaxFlow, Cycle) {
  Graph g(8);
  for (Vertex v = 0; v < 8; ++v) g.add_edge(v, (v + 1) % 8);
  EXPECT_EQ(edge_connectivity(g, 0, 4), 2u);
  EXPECT_EQ(edge_connectivity(g, 1, 2), 2u);
}

TEST(MaxFlow, Tree) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(4, 5);
  EXPECT_EQ(edge_connectivity(g, 1, 5), 1u);
}

TEST(MaxFlow, DisconnectedPairs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_EQ(edge_connectivity(g, 0, 3), 0u);
}

TEST(MaxFlow, TwoCliquesJoinedByBridgeBundle) {
  // K5 + K5 joined by 3 edges: cross connectivity = 3.
  Graph g(10);
  for (Vertex u = 0; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v) g.add_edge(u, v);
  for (Vertex u = 5; u < 10; ++u)
    for (Vertex v = u + 1; v < 10; ++v) g.add_edge(u, v);
  g.add_edge(0, 5);
  g.add_edge(1, 6);
  g.add_edge(2, 7);
  EXPECT_EQ(edge_connectivity(g, 3, 8), 3u);
  EXPECT_EQ(edge_connectivity(g, 0, 4), 4u);  // within-clique
}

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  const std::size_t n = 6;
  Graph g(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (rng.chance(0.5)) g.add_edge(u, v);
  EdgeConnectivity solver(g);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const std::uint64_t exact = brute_force_conn(g, u, v);
      EXPECT_EQ(solver.query(u, v), exact)
          << "pair (" << u << "," << v << ") seed " << GetParam();
      // Capped: min(Conn, k) for every cap up to past m.
      for (std::uint64_t k = 0; k <= g.m() + 1; ++k)
        EXPECT_EQ(solver.query(u, v, k), std::min(exact, k))
            << "pair (" << u << "," << v << ") k " << k << " seed "
            << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(MaxFlow, ReusableSolverResets) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  EdgeConnectivity solver(g);
  EXPECT_EQ(solver.query(0, 2), 2u);
  EXPECT_EQ(solver.query(0, 2), 2u);  // second query must match
  EXPECT_EQ(solver.query(1, 3), 2u);
}

// A capped query stops mid-way through a max-flow; the next query on the
// same solver must not see its residual state.
TEST(MaxFlow, AlternatingLimitsLeakNoResidualState) {
  Rng rng(5);
  const std::size_t n = 40;
  Graph g(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (rng.chance(0.25)) g.add_edge(u, v);
  std::vector<std::uint64_t> exact;
  {
    EdgeConnectivity fresh(g);
    for (Vertex u = 0; u + 1 < n; ++u) exact.push_back(fresh.query(u, u + 1));
  }
  EdgeConnectivity solver(g);
  for (int pass = 0; pass < 3; ++pass) {
    for (Vertex u = 0; u + 1 < n; ++u) {
      const std::uint64_t k = (u + static_cast<Vertex>(pass)) % 4;
      EXPECT_EQ(solver.query(u, u + 1, k), std::min(exact[u], k)) << u;
      EXPECT_EQ(solver.query(u + 1, u), exact[u]) << u;
      EXPECT_EQ(solver.query(u, u + 1, exact[u] + 1), exact[u]) << u;
    }
  }
}

// The referee's shape: a hub-and-core graph from the sequential baseline
// on zipf thresholds, where every vertex meets the hub and the
// low-numbered core. The capped verdict must match the uncapped value.
TEST(MaxFlow, CappedVerdictMatchesUncappedOnHubGraph) {
  Rng rng(11);
  const std::size_t n = 2048;
  const auto rho = zipf_thresholds(n, 16, 2.0, rng);
  const Graph g = seq::connectivity_baseline(rho);
  EdgeConnectivity capped(g);
  EdgeConnectivity uncapped(g);
  for (int i = 0; i < 48; ++i) {
    const auto a = static_cast<Vertex>(rng.below(n));
    const auto b = static_cast<Vertex>(rng.below(n));
    if (a == b) continue;
    const std::uint64_t exact = uncapped.query(a, b);
    const std::uint64_t need = std::min(rho[a], rho[b]);
    for (const std::uint64_t k : {need - 1, need, need + 1, exact, exact + 1}) {
      const std::uint64_t got = capped.query(a, b, k);
      EXPECT_EQ(got >= k, exact >= k) << a << "," << b << " k " << k;
      EXPECT_EQ(got, std::min(exact, k)) << a << "," << b << " k " << k;
    }
  }
}

TEST(MaxFlow, EdgeListConstructorMatchesGraphConstructor) {
  Rng rng(3);
  const std::size_t n = 24;
  Graph g(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (rng.chance(0.3)) g.add_edge(u, v);
  // Same edges, reversed order and flipped endpoints.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (const auto& [u, v] : g.edges()) edges.emplace_back(v, u);
  std::reverse(edges.begin(), edges.end());
  EdgeConnectivity from_graph(g);
  EdgeConnectivity from_list(n, edges);
  EXPECT_EQ(from_list.n(), n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      EXPECT_EQ(from_list.query(u, v), from_graph.query(u, v))
          << u << "," << v;
}

TEST(MaxFlow, EdgeListConstructorRejectsSelfLoop) {
  const std::vector<std::pair<Vertex, Vertex>> edges{{0, 1}, {2, 2}};
  EXPECT_THROW(EdgeConnectivity solver(3, edges), CheckError);
}

}  // namespace
}  // namespace dgr::graph
