// Theorem 1 / Corollary 2: BBST construction, positions, warm-up tree.
#include <gtest/gtest.h>

#include "primitives/bbst.h"
#include "primitives/path.h"
#include "testing.h"
#include "util/math_util.h"

namespace dgr {
namespace {

class BbstSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BbstSweep, SearchTreeInvariants) {
  const std::size_t n = GetParam();
  auto net = testing::make_strict_ncc0(n, 1000 + n);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  const std::uint64_t before = net.stats().rounds;
  const prim::TreeOverlay tree = prim::build_bbst(net, path);
  const std::uint64_t rounds = net.stats().rounds - before;

  // Binary + spanning + balanced + inorder == path order.
  EXPECT_TRUE(prim::validate_tree(net, tree, path, /*search order*/ true));
  EXPECT_LE(tree.height, ceil_log2(n) + 1);

  // Corollary 2: every node knows its position.
  for (std::size_t i = 0; i < path.order.size(); ++i)
    EXPECT_EQ(path.pos[path.order[i]], static_cast<prim::Position>(i));

  // Theorem 1: O(log n) rounds.
  EXPECT_LE(rounds, 10 * static_cast<std::uint64_t>(ceil_log2(n)) + 16);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BbstSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 33, 64, 100, 127, 128,
                                           129, 500, 1024, 2000));

TEST(Bbst, SubtreeSizesAreConsistent) {
  auto net = testing::make_strict_ncc0(100, 7);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  const prim::TreeOverlay tree = prim::build_bbst(net, path);
  EXPECT_EQ(tree.nodes[tree.root].subtree_size, 100u);
  std::uint64_t leaf_total = 0;
  for (ncc::Slot s = 0; s < 100; ++s) {
    const auto& nd = tree.nodes[s];
    std::uint64_t child_sum = 0;
    if (nd.left)
      child_sum += tree.nodes[net.slot_of(nd.left)].subtree_size;
    if (nd.right)
      child_sum += tree.nodes[net.slot_of(nd.right)].subtree_size;
    EXPECT_EQ(nd.subtree_size, child_sum + 1);
    if (child_sum == 0) ++leaf_total;
  }
  EXPECT_GE(leaf_total, 25u);  // balanced binary trees are leaf-heavy
}

TEST(Bbst, SubPathBuildsOnlyOverMembers) {
  auto net = testing::make_strict_ncc0(50, 8);
  prim::PathOverlay full = prim::undirect_initial_path(net);
  prim::TreeOverlay ignored = prim::build_bbst(net, full);
  (void)ignored;

  // Restrict to the first 20 positions.
  prim::PathOverlay sub;
  const std::size_t keep = 20;
  sub.pred.assign(50, ncc::NodeRef{});
  sub.succ.assign(50, ncc::NodeRef{});
  sub.pos.assign(50, ncc::kNoPosition);
  sub.is_member.assign(50, 0);
  sub.order.assign(full.order.begin(), full.order.begin() + keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const ncc::Slot s = sub.order[i];
    sub.is_member[s] = 1;
    sub.pred[s] = full.pred[s];
    sub.succ[s] = i + 1 < keep ? full.succ[s] : ncc::NodeRef{};
  }
  prim::TreeOverlay tree = prim::build_bbst(net, sub);
  EXPECT_EQ(tree.size(), keep);
  EXPECT_TRUE(prim::validate_tree(net, tree, sub, true));
  for (std::size_t i = 0; i < keep; ++i)
    EXPECT_EQ(sub.pos[sub.order[i]], static_cast<prim::Position>(i));
}

class WarmupSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WarmupSweep, BalancedSpanningBinary) {
  const std::size_t n = GetParam();
  auto net = testing::make_strict_ncc0(n, 2000 + n);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  const prim::TreeOverlay tree = prim::build_warmup_tree(net, path);
  // Spanning + binary + acyclic (not a search tree).
  EXPECT_TRUE(prim::validate_tree(net, tree, path, /*search order*/ false));
  EXPECT_LE(tree.height, ceil_log2(n) + 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WarmupSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33,
                                           100, 256, 999));

TEST(Warmup, MatchesPaperFigure1Shape) {
  // Path 1..8 (no shuffling, sequential IDs) must reproduce Figure 1:
  // 1 -> (2, 3); 2 -> (4, 6); 3 -> (5, 7); 4 -> (8).
  ncc::Config cfg;
  cfg.shuffle_path = false;
  cfg.random_ids = false;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  ncc::Network net(8, cfg);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  const prim::TreeOverlay tree = prim::build_warmup_tree(net, path);
  auto node = [&](ncc::NodeId id) { return tree.nodes[net.slot_of(id)]; };
  EXPECT_EQ(tree.root, net.slot_of(1));
  EXPECT_EQ(net.id_of(node(1).left), 2u);
  EXPECT_EQ(net.id_of(node(1).right), 3u);
  EXPECT_EQ(net.id_of(node(2).left), 4u);
  EXPECT_EQ(net.id_of(node(2).right), 6u);
  EXPECT_EQ(net.id_of(node(3).left), 5u);
  EXPECT_EQ(net.id_of(node(3).right), 7u);
  EXPECT_EQ(net.id_of(node(4).left), 8u);
  EXPECT_EQ(net.id_of(node(4).right), ncc::kNoNode);
}

TEST(Bbst, MatchesPaperFigure2Property) {
  // Figure 2's defining property: the BBST on the path 1..8 has inorder
  // traversal exactly 1..8 and height 4; the root is the path head.
  ncc::Config cfg;
  cfg.shuffle_path = false;
  cfg.random_ids = false;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  ncc::Network net(8, cfg);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  const prim::TreeOverlay tree = prim::build_bbst(net, path);
  EXPECT_TRUE(prim::validate_tree(net, tree, path, true));
  EXPECT_EQ(tree.root, net.slot_of(1));
  EXPECT_LE(tree.height, 4);
}

}  // namespace
}  // namespace dgr
