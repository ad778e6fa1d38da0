// §6: connectivity-threshold realizations (Theorems 17 and 18).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "graph/maxflow.h"
#include "realization/connectivity.h"
#include "realization/validate.h"
#include "seq/connectivity_baseline.h"
#include "testing.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr::realize {
namespace {

void expect_thresholds_met(const ncc::Network& net,
                           const std::vector<std::uint64_t>& rho,
                           const std::vector<std::vector<ncc::NodeId>>& stored,
                           std::uint64_t seed) {
  const graph::Graph g = graph_from_stored(net, stored);
  // 2-approximation in edge count.
  EXPECT_LE(g.m(), 2 * seq::connectivity_edge_lower_bound(rho));
  Rng rng(seed);
  const auto violation = seq::find_threshold_violation(g, rho, rng);
  EXPECT_FALSE(violation.has_value())
      << "Conn(" << violation->first << "," << violation->second
      << ") below min-threshold";
}

class Ncc1Sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(Ncc1Sweep, ImplicitRealizationMeetsThresholds) {
  const auto [n, seed] = GetParam();
  Rng rng(seed * 7 + n);
  const auto rho =
      graph::uniform_thresholds(n, std::min<std::uint64_t>(n - 1, 10), rng);
  auto net = testing::make_ncc1(n, seed);
  const auto result = realize_connectivity_ncc1(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, seed);

  // Theorem 17: O~(1) rounds (a couple of tree traversals).
  EXPECT_LE(result.rounds, 8 * static_cast<std::uint64_t>(ceil_log2(n)) + 16);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ncc1Sweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 8, 24, 48),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

class Ncc0Sweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(Ncc0Sweep, ExplicitRealizationMeetsThresholds) {
  const auto [n, seed] = GetParam();
  Rng rng(seed * 13 + n);
  const auto rho =
      graph::uniform_thresholds(n, std::min<std::uint64_t>(n - 1, 8), rng);
  auto net = testing::make_ncc0(n, seed);
  const auto result = realize_connectivity_ncc0(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, seed);

  // Explicit adjacency must be symmetric and match the implicit edges.
  const auto v =
      validate_explicit_adjacency(net, result.stored, result.adjacency);
  EXPECT_TRUE(v.ok) << v.message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ncc0Sweep,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 8, 24, 48),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// Step 2 reads the common-knowledge ID list the Network keeps sorted; the
// stored lists must equal the rule applied to a fresh sort of id_of: the
// hub, then the ρ(v)-1 smallest IDs other than v and the hub.
TEST(Connectivity, Ncc1StoredListsFollowTheSortedIdRule) {
  const std::size_t n = 1000;
  for (const bool random_ids : {true, false}) {
    ncc::Config cfg;
    cfg.seed = 31;
    cfg.initial = ncc::InitialKnowledge::kClique;
    cfg.random_ids = random_ids;
    ncc::Network net(n, cfg);
    Rng rng(32);
    const auto rho = graph::zipf_thresholds(n, 16, 2.0, rng);
    const auto result = realize_connectivity_ncc1(net, rho);
    ASSERT_TRUE(result.realizable);

    std::vector<ncc::NodeId> ids;
    for (ncc::Slot s = 0; s < n; ++s) ids.push_back(net.id_of(s));
    std::sort(ids.begin(), ids.end());
    for (ncc::Slot s = 0; s < n; ++s) {
      std::vector<ncc::NodeId> want;
      const ncc::NodeId me = net.id_of(s);
      if (me != result.hub && rho[s] != 0) {
        want.push_back(result.hub);
        for (const ncc::NodeId id : ids) {
          if (want.size() == rho[s]) break;
          if (id != me && id != result.hub) want.push_back(id);
        }
      }
      ASSERT_EQ(result.stored[s], want) << "slot " << s << " random_ids "
                                        << random_ids;
    }
  }
}

// The counter is live where bare IDs are addressed: on an NCC1 network the
// connectivity run's explicitization notifies every stored neighbour ID,
// and each one is looked up once.
TEST(Connectivity, IdResolutionsCountBareIdSendsOnNcc1) {
  ncc::Config cfg;
  cfg.seed = 5;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(1000, cfg);
  Rng rng(5);
  const auto rho = graph::zipf_thresholds(net.n(), 16, 2.0, rng);
  const auto result = realize_connectivity_ncc0(net, rho);
  ASSERT_TRUE(result.realizable);
  std::uint64_t stored = 0;
  for (const auto& s : result.stored) stored += s.size();
  EXPECT_GE(net.stats().id_resolutions, stored);
  EXPECT_GT(stored, 0u);
}

TEST(Connectivity, TieredNetworkNcc0) {
  const std::size_t n = 40;
  const auto rho = graph::tiered_thresholds(n, 4, 12, 8, 5, 2);
  auto net = testing::make_ncc0(n, 5);
  const auto result = realize_connectivity_ncc0(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, 5);
}

TEST(Connectivity, UniformThresholdOne) {
  // ρ ≡ 1: any connected overlay works; ours must still be 2-approx.
  const std::size_t n = 30;
  const std::vector<std::uint64_t> rho(n, 1);
  auto net = testing::make_ncc0(n, 6);
  const auto result = realize_connectivity_ncc0(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, 6);
}

TEST(Connectivity, MaximalThresholds) {
  // ρ ≡ n-1 forces (a 2-approx of) the complete graph.
  const std::size_t n = 12;
  const std::vector<std::uint64_t> rho(n, n - 1);
  auto net = testing::make_ncc1(n, 7);
  const auto result = realize_connectivity_ncc1(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, 7);
}

TEST(Connectivity, InfeasibleThresholdRejected) {
  const std::size_t n = 6;
  std::vector<std::uint64_t> rho(n, 2);
  rho[0] = n;  // > n-1
  auto net0 = testing::make_ncc0(n, 8);
  EXPECT_FALSE(realize_connectivity_ncc0(net0, rho).realizable);
  auto net1 = testing::make_ncc1(n, 8);
  EXPECT_FALSE(realize_connectivity_ncc1(net1, rho).realizable);
}

TEST(Connectivity, HubIsMaxRho) {
  const std::size_t n = 20;
  std::vector<std::uint64_t> rho(n, 3);
  rho[11] = 15;
  auto net = testing::make_ncc1(n, 9);
  const auto result = realize_connectivity_ncc1(net, rho);
  ASSERT_TRUE(result.realizable);
  EXPECT_EQ(result.hub, net.id_of(11));
}

TEST(Connectivity, ZipfThresholdsNcc0) {
  const std::size_t n = 36;
  Rng rng(10);
  const auto rho = graph::zipf_thresholds(n, 12, 2.0, rng);
  auto net = testing::make_ncc0(n, 10);
  const auto result = realize_connectivity_ncc0(net, rho);
  ASSERT_TRUE(result.realizable);
  expect_thresholds_met(net, rho, result.stored, 10);
}

// Stored lists holding each edge of g once, on its first endpoint's side.
std::vector<std::vector<ncc::NodeId>> stored_from_graph(
    const ncc::Network& net, const graph::Graph& g) {
  std::vector<std::vector<ncc::NodeId>> stored(g.n());
  for (const auto& [u, v] : g.edges()) stored[u].push_back(net.id_of(v));
  return stored;
}

// n = 512 is past the referee's exhaustive limit (64), so this exercises
// the extremal-pair branch: the hub (ρ = 20) and the runner-up (ρ = 19)
// lose the edge between them, which leaves the runner-up with degree 18.
TEST(ConnectivityReferee, SampledPathNamesBrokenExtremalPair) {
  const std::size_t n = 512;
  Rng rng(21);
  auto rho = graph::uniform_thresholds(n, 6, rng);
  rho[300] = 20;
  rho[400] = 19;
  const graph::Graph hub = seq::connectivity_baseline(rho);
  ASSERT_TRUE(hub.has_edge(300, 400));
  auto net = testing::make_ncc1(n, 21);
  const auto honest =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, hub), 5);
  EXPECT_TRUE(honest.ok) << honest.message;

  graph::Graph cut(n);
  for (const auto& [u, v] : hub.edges())
    if (!((u == 300 && v == 400) || (u == 400 && v == 300))) cut.add_edge(u, v);
  ASSERT_EQ(cut.m() + 1, hub.m());
  const auto broken =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, cut), 5);
  EXPECT_FALSE(broken.ok);
  EXPECT_EQ(broken.message, "threshold violated for pair (300, 400)");
}

// Triangles 0-1-2 and 3-4-5 joined by the edges 2-3 and 5-0, every ρ = 2.
// Dropping 2-3 leaves 5-0 a bridge between ρ = 2 vertices: every
// cross-triangle pair falls to λ = 1, and the exhaustive pair scan (n <= 64)
// names the first, (0, 3). The referee answers these from its bridge labels.
TEST(ConnectivityReferee, BridgeBetweenRhoTwoVerticesIsAViolation) {
  const std::vector<std::uint64_t> rho(6, 2);
  auto net = testing::make_ncc1(6, 23);
  graph::Graph ring(6);
  for (graph::Vertex v = 0; v < 6; ++v) {
    if (v != 2) ring.add_edge(v, (v + 1) % 6);
  }
  ring.add_edge(0, 2);
  ring.add_edge(3, 5);
  ring.add_edge(2, 3);
  const auto honest =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, ring), 2);
  EXPECT_TRUE(honest.ok) << honest.message;

  graph::Graph cut(6);
  for (const auto& [u, v] : ring.edges())
    if (std::min(u, v) != 2 || std::max(u, v) != 3) cut.add_edge(u, v);
  ASSERT_EQ(cut.m() + 1, ring.m());
  const auto broken =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, cut), 2);
  EXPECT_FALSE(broken.ok);
  EXPECT_EQ(broken.message, "threshold violated for pair (0, 3)");
}

// The same on the sampled path (n = 512 > 64): rings 0..255 and 256..511
// joined by 100-400 and 200-300, with ρ = 2 only on the extremal pair
// (0, 300). Dropping 200-300 leaves 100-400 a bridge between them; both
// keep degree 2, so only the bridge labels (or a max-flow) can tell.
TEST(ConnectivityReferee, SampledPathReportsBridgeBetweenRhoTwoVertices) {
  const std::size_t n = 512;
  std::vector<std::uint64_t> rho(n, 1);
  rho[0] = rho[300] = 2;
  auto net = testing::make_ncc1(n, 29);
  graph::Graph rings(n);
  for (graph::Vertex v = 0; v < n; ++v)
    rings.add_edge(v, v % 256 == 255 ? v - 255 : v + 1);
  rings.add_edge(100, 400);
  graph::Graph cut = rings;
  rings.add_edge(200, 300);
  const auto honest =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, rings), 3);
  EXPECT_TRUE(honest.ok) << honest.message;
  const auto broken =
      validate_connectivity_thresholds(net, rho, stored_from_graph(net, cut), 3);
  EXPECT_FALSE(broken.ok);
  EXPECT_EQ(broken.message, "threshold violated for pair (0, 300)");
}

// The 2-approximation edge check counts distinct edges, exactly as
// graph_from_stored does: a mirrored entry, a duplicate and a self-entry
// add nothing to the 4-cycle 0-1-2-3.
TEST(ConnectivityReferee, EdgeCountCollapsesMirroredDuplicateAndSelfEntries) {
  auto net = testing::make_ncc1(4, 3);
  std::vector<std::vector<ncc::NodeId>> stored(4);
  stored[0] = {net.id_of(1), net.id_of(1), net.id_of(0)};  // dup + self
  stored[1] = {net.id_of(0), net.id_of(2)};                 // mirror of 0-1
  stored[2] = {net.id_of(3)};
  stored[3] = {net.id_of(0)};
  ASSERT_EQ(graph_from_stored(net, stored).m(), 4U);

  // sum(ρ) = 4: passes only if the cycle counts as 4 edges.
  const auto tight = validate_connectivity_thresholds(net, {1, 1, 1, 1},
                                                      stored, 1);
  EXPECT_TRUE(tight.ok) << tight.message;
  const auto over = validate_connectivity_thresholds(net, {1, 1, 1, 0},
                                                     stored, 1);
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.message, "edge count 4 exceeds the 2-approximation bound 3");
}

}  // namespace
}  // namespace dgr::realize
