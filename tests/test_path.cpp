// Path overlay construction (§3.1).
#include <gtest/gtest.h>

#include "primitives/path.h"
#include "testing.h"

namespace dgr {
namespace {

class PathSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathSweep, UndirectedPathIsConsistent) {
  const std::size_t n = GetParam();
  auto net = testing::make_strict_ncc0(n, 42 + n);
  const prim::PathOverlay path = prim::undirect_initial_path(net);
  EXPECT_TRUE(prim::validate_path(net, path));
  EXPECT_EQ(path.order.size(), n);
  // Exactly one head and one tail.
  std::size_t heads = 0, tails = 0;
  for (ncc::Slot s = 0; s < n; ++s) {
    heads += path.pred[s] ? 0 : 1;
    tails += path.succ[s] ? 0 : 1;
  }
  EXPECT_EQ(heads, 1u);
  EXPECT_EQ(tails, 1u);
  // Cost: exactly 2 rounds.
  EXPECT_EQ(net.stats().rounds, 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 17, 64, 100,
                                           257, 1000));

TEST(Path, RefereePathMarksMembership) {
  auto net = testing::make_ncc0(10, 1);
  std::vector<ncc::Slot> order{3, 1, 4};
  const prim::PathOverlay p = prim::referee_path(net, order);
  EXPECT_TRUE(p.member(3));
  EXPECT_TRUE(p.member(1));
  EXPECT_TRUE(p.member(4));
  EXPECT_FALSE(p.member(0));
  EXPECT_EQ(p.length(), 3u);
}

}  // namespace
}  // namespace dgr
