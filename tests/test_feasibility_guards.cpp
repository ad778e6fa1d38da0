// Feasibility guards at the input boundary. A degree or connectivity
// threshold of n or more can never be met by a simple graph on n nodes, so
// every realization entry point must report it as realizable == false —
// never throw, trap or wrap. UINT64_MAX is the edge case: a guard written
// as `x + 1 > n` wraps to 0 there and lets the value through.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "realization/approx_degree.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/tree_realization.h"
#include "seq/havel_hakimi.h"
#include "testing.h"

namespace dgr::realize {
namespace {

constexpr std::size_t kN = 16;
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// All-ones input (feasible on its own) with one slot set to `bad`.
std::vector<std::uint64_t> with_bad(std::uint64_t bad) {
  std::vector<std::uint64_t> v(kN, 1);
  v[kN / 2] = bad;
  return v;
}

// Symmetric σ matrix whose only nonzero pair is (0, n/2) at `bad`.
std::vector<std::vector<std::uint64_t>> sigma_with_bad(std::uint64_t bad) {
  std::vector<std::vector<std::uint64_t>> sigma(
      kN, std::vector<std::uint64_t>(kN, 0));
  sigma[0][kN / 2] = sigma[kN / 2][0] = bad;
  return sigma;
}

// Runs `realize` on `net` and expects a clean realizable == false: no
// exception, no trap.
template <typename Realize>
void expect_unrealizable(ncc::Network&& net, Realize realize) {
  bool realizable = true;
  EXPECT_NO_THROW(realizable = realize(net).realizable);
  EXPECT_FALSE(realizable);
}

class OutOfRange : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutOfRange, DegreeEntryPointsReportUnrealizable) {
  const auto d = with_bad(GetParam());
  for (const DegreeMode mode : {DegreeMode::kExact, DegreeMode::kEnvelope}) {
    expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
      return realize_degrees_implicit(net, d, mode);
    });
    expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
      return realize_degrees_explicit(net, d, mode);
    });
  }
  expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
    return realize_upper_envelope(net, d);
  });
  expect_unrealizable(testing::make_ncc1(kN), [&](ncc::Network& net) {
    return realize_upper_envelope_ncc1(net, d);
  });
  expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
    return realize_tree_caterpillar(net, d);
  });
  expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
    return realize_tree_greedy(net, d);
  });
  EXPECT_FALSE(seq::hh_graphic(d));
  EXPECT_FALSE(seq::hh_realize(d).has_value());
}

TEST_P(OutOfRange, ConnectivityEntryPointsReportUnrealizable) {
  const auto rho = with_bad(GetParam());
  const auto sigma = sigma_with_bad(GetParam());
  expect_unrealizable(testing::make_ncc1(kN), [&](ncc::Network& net) {
    return realize_connectivity_ncc1(net, rho);
  });
  expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
    return realize_connectivity_ncc0(net, rho);
  });
  expect_unrealizable(testing::make_ncc1(kN), [&](ncc::Network& net) {
    return realize_connectivity_matrix_ncc1(net, sigma);
  });
  expect_unrealizable(testing::make_ncc0(kN), [&](ncc::Network& net) {
    return realize_connectivity_matrix_ncc0(net, sigma);
  });
}

INSTANTIATE_TEST_SUITE_P(Bounds, OutOfRange,
                         ::testing::Values(std::uint64_t{kN}, kMax));

// A tree needs sum(d) == 2(n-1); with one degree at UINT64_MAX that sum can
// wrap back onto the target ({UINT64_MAX, 3} sums to 2 on two nodes), so
// the tree check must reject the out-of-range degree on its own.
TEST(OutOfRangeTree, WrappedDegreeSumIsRejected) {
  const std::vector<std::uint64_t> d{kMax, 3};
  expect_unrealizable(testing::make_ncc0(2), [&](ncc::Network& net) {
    return realize_tree_caterpillar(net, d);
  });
  expect_unrealizable(testing::make_ncc0(2), [&](ncc::Network& net) {
    return realize_tree_greedy(net, d);
  });
}

}  // namespace
}  // namespace dgr::realize
