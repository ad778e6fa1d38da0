// The paper's round bounds as one table-driven gate (ctest label `claims`).
//
// Each row is one instance family: a generator, the algorithm the paper
// bounds, a sweep over at least 16x of n or of the parameter the claim is
// about (Δ, m, ρ, window width, capacity factor), the paper's closed-form
// bound, a cap C and a growth tolerance G. Round counts are deterministic
// (fixed seeds, one thread), so the gate is exact. A row fails when
//   - any point takes more than C · bound rounds, or
//   - G > 0 and rounds/bound at the largest point exceeds G times the ratio
//     at the smallest point: the claim is about growth, and a ratio that
//     climbs across the sweep is growth the bound does not allow.
// Algorithm 3 rows also hold phases to Lemma 10's bound. The §7 rows run the
// matching upper-bound algorithm on a Theorem 19/20 family: their bound is
// the un-rounded information bound K/(5·c_n) times lg² n (K = Δ or √m IDs
// some node must learn, 5 IDs per message), so C is the polylog tightness
// claim and G says the gap stays flat as K grows 16x. Every point must
// also take at least the information bound the finished run itself
// certifies (knowledge_round_lower_bound).
//
// Calibration: C is the row's largest measured ratio plus at least 20%
// headroom. G is 1.25, except where an additive term of the bound is loose
// at the small end of the sweep and the ratio climbs toward the cap as the
// swept term takes over (explicit_delta and range_cast_windows: 2.5;
// range_cast_disjoint, whose ratio is (lg w + 1)/(lg w + 2): 1.5).
//
// Each point prints one line (row, x, rounds, bound, ratio); EXPERIMENTS.md
// "Claims gate" tabulates the smallest and largest point of every row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "graph/degree_sequence.h"
#include "graph/generators.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/range_cast.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "realization/approx_degree.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/lower_bounds.h"
#include "realization/tree_realization.h"
#include "testing.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr {
namespace {

/// One run at one sweep point.
struct Point {
  std::uint64_t rounds = 0;
  double bound = 0;  ///< the paper's closed form at this point
  /// Algorithm 3 rows: phases used and Lemma 10's bound (0 = not checked).
  std::uint64_t phases = 0;
  std::uint64_t phase_bound = 0;
  /// §7 rows: the information bound the finished run certifies.
  std::uint64_t certificate = 0;
};

struct Row {
  const char* name;
  const char* bound;  ///< the closed form `Point::bound` evaluates
  std::vector<std::uint64_t> sweep;
  double cap;     ///< C: rounds <= C · bound at every point
  double growth;  ///< G: last ratio <= G · first ratio; 0 = no growth claim
  Point (*run)(std::uint64_t x);
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

double lg(std::size_t n) { return ceil_log2(n); }

std::uint64_t max_degree(const graph::DegreeSequence& d) {
  return *std::max_element(d.begin(), d.end());
}

/// Algorithm 3 (Theorem 11): rounds against (min{√m, Δ} + 1) · lg² n,
/// phases against Lemma 10's min{2Δ + 2, 3√m + 6}.
constexpr const char* kImplicitBound = "(min{√m,Δ}+1)·lg²n";
Point implicit(const graph::DegreeSequence& d, std::uint64_t seed) {
  auto net = testing::make_ncc0(d.size(), seed);
  const auto r = realize::realize_degrees_implicit(net, d);
  EXPECT_TRUE(r.realizable);
  const std::uint64_t delta = max_degree(d);
  const std::uint64_t sqrt_m = isqrt(graph::degree_sum(d) / 2);
  const double l = lg(d.size());
  return {r.rounds,
          static_cast<double>(std::min(sqrt_m, delta) + 1) * l * l, r.phases,
          std::min(2 * delta + 2, 3 * sqrt_m + 6), 0};
}

/// Theorem 12's explicitization term: (m/n + Δ) / c_n + lg n + 1 rounds,
/// with c_n the per-round message capacity.
constexpr const char* kExplicitBound = "(m/n+Δ)/c_n+lg n+1";
double explicit_bound(const graph::DegreeSequence& d, int capacity) {
  const double n = static_cast<double>(d.size());
  const double m = static_cast<double>(graph::degree_sum(d)) / 2;
  return (m / n + static_cast<double>(max_degree(d))) / capacity +
         lg(d.size()) + 1;
}

Point explicit_conversion(const graph::DegreeSequence& d,
                          const ncc::Config& cfg) {
  ncc::Network net(d.size(), cfg);
  const auto r = realize::realize_degrees_explicit(net, d);
  EXPECT_TRUE(r.realizable);
  return {r.explicit_rounds, explicit_bound(d, net.capacity())};
}

Point explicit_regular(std::size_t n, std::uint64_t delta) {
  ncc::Config cfg;
  cfg.seed = 60 + delta;
  return explicit_conversion(graph::regular_sequence(n, delta), cfg);
}

/// Theorem 13 in NCC0: implicit + explicit rounds against Δ · lg² n.
Point envelope(const graph::DegreeSequence& d, std::uint64_t seed) {
  auto net = testing::make_ncc0(d.size(), seed);
  const auto r = realize::realize_upper_envelope(net, d);
  EXPECT_TRUE(r.realizable);
  const double l = lg(d.size());
  return {r.implicit_rounds + r.explicit_rounds,
          static_cast<double>(max_degree(d)) * l * l};
}

template <typename Realize>
Point tree(std::uint64_t n, std::uint64_t seed, Realize realize_tree) {
  Rng rng(seed);
  const auto d = graph::random_tree_sequence(n, rng);
  auto net = testing::make_ncc0(n, seed + 1);
  const auto r = realize_tree(net, d);
  EXPECT_TRUE(r.realizable);
  const double l = lg(n);
  return {r.rounds, l * l * l};
}

/// Algorithm 6 (Theorem 18): rounds against ρ_max · lg n.
Point connectivity_ncc0(const std::vector<std::uint64_t>& rho,
                        std::uint64_t seed) {
  auto net = testing::make_ncc0(rho.size(), seed);
  const auto r = realize::realize_connectivity_ncc0(net, rho);
  EXPECT_TRUE(r.realizable);
  return {r.rounds, static_cast<double>(max_degree(rho)) * lg(rho.size())};
}

/// The path, BBST and skip overlay every range primitive starts from.
struct Overlay {
  Overlay(std::size_t n, std::uint64_t seed)
      : net(testing::make_ncc0(n, seed)),
        path(prim::undirect_initial_path(net)),
        tree(prim::build_bbst(net, path)),
        skip(prim::build_skiplinks(net, path)) {}
  ncc::Network net;
  prim::PathOverlay path;
  prim::TreeOverlay tree;
  prim::SkipOverlay skip;
};

/// Rounds a range multicast of `tasks` takes on `f`.
std::uint64_t range_cast_rounds(
    Overlay& f, const std::vector<std::vector<prim::RangeCastTask>>& tasks) {
  const std::uint64_t before = f.net.stats().rounds;
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [](prim::Slot, std::uint32_t, std::uint64_t) {});
  return f.net.stats().rounds - before;
}

/// A §7 point: rounds against the information bound K/(c_n · IDs per
/// message) times lg² n, and the bound the finished run itself certifies.
/// K is the ID count some node must learn (Δ or √m). The bound is kept
/// un-rounded: realize::explicit_info_bound and sqrt_m_info_bound round up
/// to whole rounds, which is 1 for every K < 5·c_n, and a ratio against
/// that constant could only cap rounds, not show the gap's shape.
Point information_point(const ncc::Network& net, std::uint64_t rounds,
                        double ids_to_learn) {
  const double intake =
      static_cast<double>(net.capacity()) *
      static_cast<double>(realize::ids_per_message());
  const double l = lg(net.n());
  return {rounds, ids_to_learn / intake * l * l, 0, 0,
          realize::knowledge_round_lower_bound(net)};
}

const Row kRows[] = {
    // ---- Algorithm 3, Theorem 11 / Lemma 10 ----
    {"implicit_regular", kImplicitBound, {256, 1024, 4096}, 2.75, 1.25,
     [](std::uint64_t n) {
       return implicit(graph::regular_sequence(n, 4), 50 + n);
     }},
    {"implicit_star_heavy", kImplicitBound, {256, 1024, 4096}, 2.25, 1.25,
     [](std::uint64_t m) {
       return implicit(graph::star_heavy_sequence(2048, m), 51 + m);
     }},
    {"implicit_powerlaw", kImplicitBound, {256, 1024, 4096}, 1.5, 1.25,
     [](std::uint64_t n) {
       Rng rng(52);
       return implicit(graph::powerlaw_sequence(n, isqrt(n) * 2, 2.2, rng),
                       52 + n);
     }},
    {"implicit_gnp", kImplicitBound, {256, 1024, 4096}, 2.5, 1.25,
     [](std::uint64_t n) {
       Rng rng(53);
       return implicit(
           graph::gnp_sequence(n, 8.0 / static_cast<double>(n), rng), 53 + n);
     }},
    {"implicit_bimodal", kImplicitBound, {256, 1024, 4096}, 3.75, 1.25,
     [](std::uint64_t n) {
       return implicit(graph::bimodal_sequence(n, 2, 32), 54 + n);
     }},
    // ---- explicitization, Theorem 12 ----
    {"explicit_delta", kExplicitBound, {8, 32, 128}, 0.5, 2.5,
     [](std::uint64_t delta) { return explicit_regular(1024, delta); }},
    {"explicit_n", kExplicitBound, {256, 1024, 4096}, 0.5, 1.25,
     [](std::uint64_t n) { return explicit_regular(n, 16); }},
    {"explicit_capacity", kExplicitBound, {1, 4, 16}, 1.25, 1.25,
     [](std::uint64_t factor) {
       ncc::Config cfg;
       cfg.seed = 100;
       cfg.capacity_factor = static_cast<int>(factor);
       return explicit_conversion(graph::regular_sequence(512, 96), cfg);
     }},
    // ---- upper envelope, Theorem 13 ----
    {"envelope_random", "Δ·lg²n", {32, 128, 512}, 2, 1.25,
     [](std::uint64_t n) {
       Rng rng(70);
       graph::DegreeSequence d(n);
       for (auto& x : d) x = rng.below(n);  // overwhelmingly non-graphic
       return envelope(d, 71);
     }},
    {"envelope_odd_sum", "Δ·lg²n", {128, 512, 2048}, 3.75, 1.25,
     [](std::uint64_t n) {
       graph::DegreeSequence d(n, 4);
       d[0] = 5;  // odd sum: one bump off a graphic sequence
       return envelope(d, 72);
     }},
    {"envelope_ncc1", "0", {128, 512, 2048}, 1, 0,
     [](std::uint64_t n) {
       Rng rng(73);
       graph::DegreeSequence d(n);
       for (auto& x : d) x = rng.below(n);
       auto net = testing::make_ncc1(n, 74);
       const auto r = realize::realize_upper_envelope_ncc1(net, d);
       EXPECT_TRUE(r.realizable);
       return Point{r.rounds, 0};
     }},
    // ---- trees, Theorems 14 and 16 ----
    {"tree_caterpillar", "lg³n", {256, 1024, 4096}, 0.6, 1.25,
     [](std::uint64_t n) {
       return tree(n, 80, realize::realize_tree_caterpillar);
     }},
    {"tree_greedy", "lg³n", {256, 1024, 4096}, 0.5, 1.25,
     [](std::uint64_t n) { return tree(n, 82, realize::realize_tree_greedy); }},
    // ---- connectivity thresholds, Theorems 17 and 18 ----
    {"connectivity_ncc1", "lg n", {256, 2048, 16384}, 7, 1.25,
     [](std::uint64_t n) {
       Rng rng(90);
       const auto rho = graph::uniform_thresholds(
           n, std::min<std::uint64_t>(n - 1, 16), rng);
       auto net = testing::make_ncc1(n, 91);
       const auto r = realize::realize_connectivity_ncc1(net, rho);
       EXPECT_TRUE(r.realizable);
       return Point{r.rounds, lg(n)};
     }},
    {"connectivity_ncc0_rmax", "ρ_max·lg n", {8, 32, 128}, 3.25, 1.25,
     [](std::uint64_t rmax) {
       Rng rng(92);
       return connectivity_ncc0(graph::uniform_thresholds(512, rmax, rng), 93);
     }},
    {"connectivity_ncc0_tiered", "ρ_max·lg n", {256, 1024, 4096}, 1.25, 1.25,
     [](std::uint64_t n) {
       return connectivity_ncc0(
           graph::tiered_thresholds(n, n / 32 + 1, 24, n / 8, 8, 2), 94);
     }},
    // ---- primitives: sort (Theorem 3), range multicast (Theorems 6/7) ----
    {"sort_batcher", "lg²n", {256, 1024, 4096}, 1, 1.25,
     [](std::uint64_t n) {
       Overlay f(n, 101);
       Rng rng(5);
       std::vector<std::uint64_t> key(n);
       for (auto& k : key) k = rng.below(n);
       const std::uint64_t before = f.net.stats().rounds;
       prim::distributed_sort(f.net, f.path, f.skip, key, true);
       const double l = lg(n);
       return Point{f.net.stats().rounds - before, l * l};
     }},
    {"range_cast_disjoint", "lg w+2", {4, 64, 1024}, 1.25, 1.5,
     [](std::uint64_t width) {
       const std::size_t n = 4096;
       Overlay f(n, 46);
       std::vector<std::vector<prim::RangeCastTask>> tasks(n);
       for (std::size_t g = 0; g + width <= n; g += width) {
         const ncc::Slot src = f.path.order[g];
         tasks[src].push_back({static_cast<prim::Position>(g + 1),
                               static_cast<prim::Position>(g + width - 1), 1,
                               0, f.net.ref_of(src)});
       }
       return Point{range_cast_rounds(f, tasks), lg(width) + 2};
     }},
    {"range_cast_windows", "ρ/c_n+lg n", {8, 64, 512}, 1, 2.5,
     [](std::uint64_t rho) {
       const std::size_t n = 4096;
       Overlay f(n, 47);
       std::vector<std::vector<prim::RangeCastTask>> tasks(n);
       for (std::size_t i = n / 2; i < n; ++i) {
         const ncc::Slot src = f.path.order[i];
         tasks[src].push_back({static_cast<prim::Position>(i - rho),
                               static_cast<prim::Position>(i - 1), 2,
                               0, f.net.ref_of(src)});
       }
       return Point{range_cast_rounds(f, tasks),
                    static_cast<double>(rho) / f.net.capacity() + lg(n)};
     }},
    // ---- §7 lower bounds, Theorems 19 and 20 (n = 1024) ----
    {"lower_sqrt_m_star_heavy", "√m/(5c_n)·lg²n", {256, 1024, 4096}, 490, 1.25,
     [](std::uint64_t m) {
       auto net = testing::make_ncc0(1024, 95);
       const auto r = realize::realize_degrees_implicit(
           net, graph::star_heavy_sequence(net.n(), m));
       EXPECT_TRUE(r.realizable);
       return information_point(net, r.rounds,
                                std::sqrt(static_cast<double>(m)));
     }},
    {"lower_delta_implicit", "Δ/(5c_n)·lg²n", {4, 16, 64}, 650, 1.25,
     [](std::uint64_t delta) {
       auto net = testing::make_ncc0(1024, 96);
       const auto r = realize::realize_degrees_implicit(
           net, graph::regular_sequence(net.n(), delta));
       EXPECT_TRUE(r.realizable);
       return information_point(net, r.rounds, static_cast<double>(delta));
     }},
    {"lower_delta_explicit", "Δ/(5c_n)·lg²n", {4, 16, 64}, 650, 1.25,
     [](std::uint64_t delta) {
       auto net = testing::make_ncc0(1024, 97);
       const auto r = realize::realize_degrees_explicit(
           net, graph::regular_sequence(net.n(), delta));
       EXPECT_TRUE(r.realizable);
       return information_point(net, r.implicit_rounds + r.explicit_rounds,
                                static_cast<double>(delta));
     }},
};

class Claims : public ::testing::TestWithParam<Row> {};

TEST_P(Claims, RoundsWithinBoundAcrossSweep) {
  const Row& row = GetParam();
  ASSERT_GE(row.sweep.back(), 16 * row.sweep.front()) << "sweep under 16x";
  std::vector<double> ratio;
  for (const std::uint64_t x : row.sweep) {
    const Point p = row.run(x);
    const double r = p.bound > 0 ? static_cast<double>(p.rounds) / p.bound : 0;
    ratio.push_back(r);
    std::printf("claims %-26s x=%-6llu rounds=%-6llu bound=%-9.1f ratio=%.3f",
                row.name, static_cast<unsigned long long>(x),
                static_cast<unsigned long long>(p.rounds), p.bound, r);
    if (p.phase_bound != 0)
      std::printf(" phases=%llu/%llu",
                  static_cast<unsigned long long>(p.phases),
                  static_cast<unsigned long long>(p.phase_bound));
    if (p.certificate != 0)
      std::printf(" certificate=%llu",
                  static_cast<unsigned long long>(p.certificate));
    std::printf("\n");
    EXPECT_LE(static_cast<double>(p.rounds), row.cap * p.bound)
        << row.name << " x=" << x << ": over C·" << row.bound;
    EXPECT_LE(p.phases, p.phase_bound)
        << row.name << " x=" << x << ": phases over Lemma 10's bound";
    EXPECT_GE(p.rounds, p.certificate)
        << row.name << " x=" << x << ": under the run's own certificate";
  }
  if (row.growth > 0) {
    EXPECT_LE(ratio.back(), row.growth * ratio.front())
        << row.name << ": rounds/(" << row.bound << ") grew "
        << ratio.front() << " -> " << ratio.back();
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, Claims, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dgr
