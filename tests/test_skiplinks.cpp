// Skip overlay (pointer doubling) construction.
#include <gtest/gtest.h>

#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "testing.h"
#include "util/math_util.h"

namespace dgr {
namespace {

class SkipSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SkipSweep, LinksPointExactly2kAway) {
  const std::size_t n = GetParam();
  auto net = testing::make_strict_ncc0(n, 500 + n);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  (void)tree;
  const std::uint64_t before = net.stats().rounds;
  const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
  const std::uint64_t rounds = net.stats().rounds - before;

  EXPECT_TRUE(prim::validate_skiplinks(net, path, skip));
  EXPECT_LE(rounds, 2 * static_cast<std::uint64_t>(ceil_log2(n)) + 4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkipSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 16, 31, 64,
                                           100, 333, 1024));

TEST(SkipLinks, SubPathLinksStayInside) {
  auto net = testing::make_strict_ncc0(64, 3);
  prim::PathOverlay full = prim::undirect_initial_path(net);
  prim::build_bbst(net, full);

  prim::PathOverlay sub;
  const std::size_t keep = 24;
  sub.pred.assign(64, ncc::NodeRef{});
  sub.succ.assign(64, ncc::NodeRef{});
  sub.pos = full.pos;
  sub.is_member.assign(64, 0);
  sub.order.assign(full.order.begin(), full.order.begin() + keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const ncc::Slot s = sub.order[i];
    sub.is_member[s] = 1;
    sub.pred[s] = full.pred[s];
    sub.succ[s] = i + 1 < keep ? full.succ[s] : ncc::NodeRef{};
  }
  const prim::SkipOverlay skip = prim::build_skiplinks(net, sub);
  EXPECT_TRUE(prim::validate_skiplinks(net, sub, skip));
}

}  // namespace
}  // namespace dgr
