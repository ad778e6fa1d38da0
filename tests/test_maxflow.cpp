// Dinic edge-connectivity vs. known topologies and a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/maxflow.h"
#include "seq/connectivity_baseline.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::graph {
namespace {

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

// Whether s reaches t over the edges not picked for the cut (union-find, so
// parallel edges need no special care).
bool connected_without(std::size_t n, const EdgeList& edges,
                       const std::vector<bool>& pick, Vertex s, Vertex t) {
  std::vector<Vertex> parent(n);
  for (Vertex v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&](Vertex v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (!pick[i]) parent[find(edges[i].first)] = find(edges[i].second);
  return find(s) == find(t);
}

// Brute-force oracle: minimum s-t cut by enumerating edge subsets (tiny
// graphs only). Conn(s,t) = min #edges whose removal disconnects s from t.
// Takes an edge list, so a repeated edge counts as a parallel edge.
std::uint64_t brute_force_conn(std::size_t n, const EdgeList& edges, Vertex s,
                               Vertex t) {
  const std::size_t m = edges.size();
  for (std::uint64_t cut_size = 0; cut_size <= m; ++cut_size) {
    // Try all subsets of exactly cut_size edges.
    std::vector<bool> pick(m, false);
    std::fill(pick.end() - static_cast<std::ptrdiff_t>(cut_size), pick.end(),
              true);
    do {
      if (!connected_without(n, edges, pick, s, t)) return cut_size;
    } while (std::next_permutation(pick.begin(), pick.end()));
  }
  return m + 1;  // unreachable
}

std::uint64_t brute_force_conn(const Graph& g, Vertex s, Vertex t) {
  return brute_force_conn(g.n(), g.edges(), s, t);
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

// A random multigraph on at most 7 vertices with every shape the label fast
// path must get right: two cycles joined by a bridge (a 2-cycle is a doubled
// edge), a pendant bridge, an isolated vertex or a second component, and
// extra parallel copies of random edges (which can turn a bridge into a
// 2-edge cut). Vertex labels and edge order are shuffled. Returns n too.
std::pair<std::size_t, EdgeList> shaped_multigraph(Rng& rng) {
  // Vertices 0..a-1 and a..a+b-1 form the two cycles; the rest are spare.
  const auto a = static_cast<Vertex>(2 + rng.below(2));
  const auto b = static_cast<Vertex>(2 + rng.below(2));
  const std::size_t n = a + b + rng.below(8 - a - b);
  std::vector<Vertex> label(n);
  for (Vertex v = 0; v < n; ++v) label[v] = v;
  rng.shuffle(label);
  EdgeList edges;
  const auto add = [&](Vertex u, Vertex v) {
    if (rng.chance(0.5)) std::swap(u, v);
    edges.emplace_back(label[u], label[v]);
  };
  const auto cycle = [&](Vertex first, Vertex len) {
    for (Vertex i = 0; i < len; ++i)
      add(first + i, first + (i + 1) % len);
  };
  cycle(0, a);
  cycle(a, b);
  add(static_cast<Vertex>(rng.below(a)),
      a + static_cast<Vertex>(rng.below(b)));  // the joining bridge
  Vertex next = a + b;
  if (next < n && rng.chance(0.7)) {  // pendant bridge
    add(static_cast<Vertex>(rng.below(next)), next);
    ++next;
  }
  if (next + 1 < n && rng.chance(0.5)) {  // a second component
    add(next, next + 1);
    if (rng.chance(0.5)) add(next, next + 1);
  }
  // Whatever is left stays isolated.
  const std::size_t extra = rng.below(3);
  for (std::size_t i = 0; i < extra; ++i)
    edges.push_back(edges[rng.below(edges.size())]);
  rng.shuffle(edges);
  return {n, edges};
}

// An arbitrary multigraph: m edges drawn with replacement, so parallel edges
// and isolated vertices are common.
EdgeList uniform_multigraph(Rng& rng, std::size_t n, std::size_t m) {
  EdgeList edges;
  while (edges.size() < m) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return edges;
}

void expect_matches_brute_force(std::size_t n, const EdgeList& edges,
                                std::uint64_t seed) {
  EdgeConnectivity solver(n, edges);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      if (u == v) continue;
      const std::uint64_t exact = brute_force_conn(n, edges, u, v);
      EXPECT_EQ(solver.query(u, v), exact)
          << "pair (" << u << "," << v << ") seed " << seed;
      for (std::uint64_t k = 0; k <= edges.size() + 1; ++k)
        EXPECT_EQ(solver.query(u, v, k), std::min(exact, k))
            << "pair (" << u << "," << v << ") k " << k << " seed " << seed;
    }
  }
}

class MultigraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultigraphSweep, ShapedMatchesBruteForce) {
  Rng rng(GetParam());
  const auto [n, edges] = shaped_multigraph(rng);
  expect_matches_brute_force(n, edges, GetParam());
}

TEST_P(MultigraphSweep, UniformMatchesBruteForce) {
  Rng rng(GetParam() + 1000);
  const std::size_t n = 2 + rng.below(6);
  const std::size_t m = rng.below(11);
  expect_matches_brute_force(n, uniform_multigraph(rng, n, m), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultigraphSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

// A parallel edge is never a bridge: two copies of one edge carry two
// edge-disjoint paths.
TEST(MaxFlow, DoubledEdgeGivesTwo) {
  const EdgeList edges{{0, 1}, {1, 0}, {1, 2}};
  EdgeConnectivity solver(3, edges);
  EXPECT_EQ(solver.query(0, 1), 2u);
  EXPECT_EQ(solver.query(1, 0), 2u);
  EXPECT_EQ(solver.query(0, 1, 1), 1u);
  EXPECT_EQ(solver.query(0, 2), 1u);  // 1-2 is a bridge
}

// The labels are built by whichever query comes first; answers must not
// depend on query order or on the caps of earlier queries.
TEST(MaxFlow, RepeatedMixedCapQueriesAreOrderIndependent) {
  // K4 on 0..3, a bridge 3-4 into the triangle 4-5-6, and isolated 7.
  const std::size_t n = 8;
  const EdgeList edges{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                       {3, 4}, {4, 5}, {5, 6}, {6, 4}};
  struct Query {
    Vertex s, t;
    std::uint64_t cap;
  };
  std::vector<Query> queries;
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = 0; v < n; ++v)
      for (const std::uint64_t cap :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
            std::uint64_t{3}, std::numeric_limits<std::uint64_t>::max()})
        queries.push_back({u, v, cap});
  std::vector<std::uint64_t> expected;
  for (const Query& q : queries)
    expected.push_back(q.s == q.t ? 0
                                  : std::min(brute_force_conn(n, edges, q.s, q.t),
                                             q.cap));
  Rng rng(7);
  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int pass = 0; pass < 4; ++pass) {
    EdgeConnectivity solver(n, edges);
    for (int repeat = 0; repeat < 2; ++repeat) {
      rng.shuffle(order);
      for (const std::size_t i : order)
        EXPECT_EQ(solver.query(queries[i].s, queries[i].t, queries[i].cap),
                  expected[i])
            << queries[i].s << "," << queries[i].t << " cap "
            << queries[i].cap << " pass " << pass;
    }
  }
}

TEST(MaxFlow, EdgeListConstructorRejectsSelfLoop) {
  const std::vector<std::pair<Vertex, Vertex>> edges{{0, 1}, {2, 2}};
  EXPECT_THROW(EdgeConnectivity solver(3, edges), CheckError);
}

}  // namespace
}  // namespace dgr::graph
