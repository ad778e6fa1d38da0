// Sequential baselines: greedy tree (min diameter), caterpillar, the
// connectivity hub construction, and the Prüfer brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "graph/generators.h"
#include "graph/prufer.h"
#include "graph/tree_metrics.h"
#include "seq/caterpillar.h"
#include "seq/connectivity_baseline.h"
#include "seq/greedy_tree.h"
#include "util/rng.h"

namespace dgr::seq {
namespace {

using graph::DegreeSequence;

TEST(GreedyTree, RealizesSortedSequence) {
  DegreeSequence d{3, 3, 2, 1, 1, 1, 1};  // sum 12 = 2*(7-1)
  const auto t = greedy_tree(d);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->is_tree());
  auto realized = t->degree_sequence();
  std::sort(realized.begin(), realized.end(), std::greater<>());
  std::sort(d.begin(), d.end(), std::greater<>());
  EXPECT_EQ(realized, d);
}

TEST(GreedyTree, RejectsNonTreeSequences) {
  EXPECT_FALSE(greedy_tree({2, 2, 2}).has_value());
  EXPECT_FALSE(greedy_tree({3, 1, 1}).has_value());
}

TEST(Caterpillar, RealizesAndMaximizesDiameter) {
  const DegreeSequence d{3, 3, 2, 1, 1, 1, 1};
  const auto cat = caterpillar_tree(d);
  const auto greedy = greedy_tree(d);
  ASSERT_TRUE(cat && greedy);
  EXPECT_TRUE(cat->is_tree());
  EXPECT_GE(graph::tree_diameter(*cat), graph::tree_diameter(*greedy));
}

TEST(Prufer, DecodeStar) {
  // Prüfer sequence (0, 0, 0) -> star centered at 0 on 5 vertices.
  const auto t = graph::prufer_decode({0, 0, 0});
  EXPECT_TRUE(t.is_tree());
  EXPECT_EQ(t.degree(0), 4u);
}

class GreedyIsOptimal : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyIsOptimal, MatchesBruteForceMinDiameter) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 2 + rng.below(7);  // n in [2, 8]
    const auto d = graph::random_tree_sequence(n, rng);
    const auto brute = graph::min_tree_diameter_bruteforce(d);
    const auto greedy = min_tree_diameter(d);
    ASSERT_TRUE(brute && greedy);
    EXPECT_EQ(*greedy, *brute) << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyIsOptimal,
                         ::testing::Range<std::uint64_t>(1, 8));

// Counts n_l(T) = |{v : ecc(v, T) <= l}| for every l; the Smith–Székely–
// Wang dominance (paper Lemma 15's engine) says the greedy tree maximizes
// every n_l simultaneously over all realizations.
std::vector<std::uint64_t> ecc_histogram(const graph::Graph& t,
                                         std::size_t n) {
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (const auto e : graph::eccentricities(t)) ++counts[e];
  // prefix: counts[l] = #nodes with ecc <= l
  for (std::size_t l = 1; l <= n; ++l) counts[l] += counts[l - 1];
  return counts;
}

class EccDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EccDominance, GreedyTreeDominatesEveryRealization) {
  Rng rng(GetParam() + 70);
  const std::size_t n = 2 + rng.below(6);  // [2, 7]
  const auto d = graph::random_tree_sequence(n, rng);
  auto sorted = d;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());

  const auto greedy = greedy_tree(d);
  ASSERT_TRUE(greedy.has_value());
  const auto greedy_hist = ecc_histogram(*greedy, n);

  // Enumerate all trees with this degree multiset via Prüfer sequences.
  std::vector<std::uint32_t> pool;
  for (std::uint32_t v = 0; v < n; ++v)
    for (std::uint64_t k = 1; k < sorted[v]; ++k) pool.push_back(v);
  std::sort(pool.begin(), pool.end());
  std::vector<std::uint32_t> seq = pool;
  do {
    const auto t = graph::prufer_decode(seq);
    const auto hist = ecc_histogram(t, n);
    for (std::size_t l = 0; l <= n; ++l)
      EXPECT_GE(greedy_hist[l], hist[l]) << "l=" << l << " n=" << n;
  } while (std::next_permutation(seq.begin(), seq.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EccDominance,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(ConnectivityBaseline, LowerBound) {
  EXPECT_EQ(connectivity_edge_lower_bound({3, 2, 2, 1}), 4u);
  EXPECT_EQ(connectivity_edge_lower_bound({1, 1, 1}), 2u);
}

class HubConstruction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HubConstruction, SatisfiesThresholdsWithin2x) {
  Rng rng(GetParam());
  const std::size_t n = 24;
  const auto rho = graph::uniform_thresholds(n, 8, rng);
  const auto g = connectivity_baseline(rho);
  EXPECT_LE(g.m(), 2 * connectivity_edge_lower_bound(rho));
  const auto violation = find_threshold_violation(g, rho, rng);
  EXPECT_FALSE(violation.has_value())
      << "pair (" << violation->first << "," << violation->second << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HubConstruction,
                         ::testing::Range<std::uint64_t>(1, 8));

TEST(FindThresholdViolation, DetectsInsufficientGraph) {
  // A path cannot give connectivity 2.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  graph::ThresholdVector rho{2, 2, 2, 2};
  Rng rng(1);
  EXPECT_TRUE(find_threshold_violation(g, rho, rng).has_value());
}

// Above the exhaustive limit the extremal pair is checked first. On the
// empty graph every pair violates, so the result is exactly that pair:
// the two largest thresholds, ties to the lowest vertex index, chosen
// without drawing from the RNG.
TEST(FindThresholdViolation, ExtremalPairBreaksTiesByLowestIndex) {
  const std::size_t n = 256;
  const graph::Graph empty(n);
  using Pair = std::pair<graph::Vertex, graph::Vertex>;

  graph::ThresholdVector tied(n, 2);
  for (const graph::Vertex v : {200U, 17U, 99U, 40U}) tied[v] = 8;
  Rng rng(1);
  Rng untouched = rng;
  EXPECT_EQ(find_threshold_violation(empty, tied, rng), Pair(17, 40));
  EXPECT_EQ(rng(), untouched());

  graph::ThresholdVector late_max(n, 3);
  late_max[0] = 1;
  late_max[250] = 9;
  EXPECT_EQ(find_threshold_violation(empty, late_max, rng), Pair(250, 1));

  graph::ThresholdVector tied_second(n, 1);
  tied_second[9] = 5;
  tied_second[7] = 5;
  tied_second[30] = 6;
  EXPECT_EQ(find_threshold_violation(empty, tied_second, rng), Pair(30, 7));
}

TEST(FindThresholdViolation, ExtremalPairOnZipfThresholds) {
  // About n/16 vertices tie at the top threshold.
  const std::size_t n = 4096;
  Rng rng(7);
  const auto rho = graph::zipf_thresholds(n, 16, 2.0, rng);
  std::vector<graph::Vertex> order(n);
  for (graph::Vertex v = 0; v < n; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::Vertex a, graph::Vertex b) {
                     return rho[a] > rho[b];
                   });
  ASSERT_EQ(rho[order[0]], rho[order[1]]);
  EXPECT_EQ(find_threshold_violation(graph::Graph(n), rho, rng),
            std::make_pair(order[0], order[1]));
}

}  // namespace
}  // namespace dgr::seq
