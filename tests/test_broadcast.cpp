// Theorem 4 (broadcast/aggregation) and Theorem 5 (collection).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "primitives/bbst.h"
#include "primitives/broadcast.h"
#include "primitives/collection.h"
#include "primitives/path.h"
#include "testing.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr {
namespace {

struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1)
      : net(dgr::testing::make_strict_ncc0(n, seed)),
        path(prim::undirect_initial_path(net)),
        tree(prim::build_bbst(net, path)) {}
  ncc::Network net;
  prim::PathOverlay path;
  prim::TreeOverlay tree;
};

class BroadcastSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BroadcastSweep, RootValueReachesEveryone) {
  Fixture f(GetParam(), GetParam() + 7);
  const std::uint64_t before = f.net.stats().rounds;
  const auto got = prim::broadcast_from_root(f.net, f.tree, 4242);
  const std::uint64_t rounds = f.net.stats().rounds - before;
  for (ncc::Slot s = 0; s < f.net.n(); ++s) EXPECT_EQ(got[s], 4242u);
  EXPECT_LE(rounds, static_cast<std::uint64_t>(f.tree.height) + 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BroadcastSweep,
                         ::testing::Values(1, 2, 3, 10, 64, 100, 511, 1000));

TEST(Broadcast, LeaderBroadcastTeachesId) {
  Fixture f(200, 5);
  // Pick the path tail as leader — maximally far from the root.
  const ncc::Slot leader = f.path.order.back();
  const auto got = prim::broadcast_from_leader(f.net, f.tree, leader,
                                               f.net.id_of(leader),
                                               /*value_is_id=*/true);
  for (ncc::Slot s = 0; s < f.net.n(); ++s) {
    EXPECT_EQ(got[s], f.net.id_of(leader));
    EXPECT_TRUE(f.net.node_knows(s, f.net.id_of(leader)));
  }
}

TEST(Aggregate, SumMaxMinOr) {
  Fixture f(300, 6);
  const std::size_t n = f.net.n();
  Rng rng(99);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(10000);

  EXPECT_EQ(prim::aggregate_to_root(f.net, f.tree, v, prim::comb_sum),
            std::accumulate(v.begin(), v.end(), std::uint64_t{0}));
  EXPECT_EQ(prim::aggregate_to_root(f.net, f.tree, v, prim::comb_max),
            *std::max_element(v.begin(), v.end()));
  EXPECT_EQ(prim::aggregate_to_root(f.net, f.tree, v, prim::comb_min),
            *std::min_element(v.begin(), v.end()));
  std::uint64_t all_or = 0;
  for (const auto x : v) all_or |= x;
  EXPECT_EQ(prim::aggregate_to_root(f.net, f.tree, v, prim::comb_or), all_or);
}

TEST(Aggregate, AndBroadcastInformsAll) {
  Fixture f(128, 8);
  std::vector<std::uint64_t> v(f.net.n(), 1);
  const std::uint64_t before = f.net.stats().rounds;
  const std::uint64_t total = prim::aggregate_and_broadcast(
      f.net, f.tree, v, prim::comb_sum);
  EXPECT_EQ(total, 128u);
  EXPECT_LE(f.net.stats().rounds - before,
            4 * static_cast<std::uint64_t>(f.tree.height) + 8);
}

TEST(Aggregate, ArgmaxFindsWinnerAndTeachesId) {
  Fixture f(150, 9);
  Rng rng(1234);
  std::vector<std::uint64_t> key(f.net.n());
  for (auto& k : key) k = rng.below(1000);
  key[37] = 5000;  // unique maximum
  const auto result = prim::aggregate_argmax(f.net, f.tree, key);
  EXPECT_EQ(result.key, 5000u);
  EXPECT_EQ(result.id, f.net.id_of(37));
  for (ncc::Slot s = 0; s < f.net.n(); ++s)
    EXPECT_TRUE(f.net.node_knows(s, result.id));
}

TEST(Aggregate, ArgmaxTieBreaksBySmallestId) {
  Fixture f(64, 10);
  std::vector<std::uint64_t> key(f.net.n(), 7);  // all tied
  const auto result = prim::aggregate_argmax(f.net, f.tree, key);
  ncc::NodeId smallest = ~ncc::NodeId{0};
  for (ncc::Slot s = 0; s < f.net.n(); ++s)
    smallest = std::min(smallest, f.net.id_of(s));
  EXPECT_EQ(result.id, smallest);
}

class MedianSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MedianSweep, MedianBecomesCommonKnowledge) {
  const std::size_t n = GetParam();
  Fixture f(n, n + 99);
  const std::uint64_t before = f.net.stats().rounds;
  const ncc::NodeId median = prim::announce_median(f.net, f.tree, f.path);
  const std::uint64_t rounds = f.net.stats().rounds - before;

  // Corollary 2: the right node, known to everybody, in O(log n).
  EXPECT_EQ(median, f.net.id_of(f.path.order[(n - 1) / 2]));
  for (ncc::Slot s = 0; s < f.net.n(); ++s)
    EXPECT_TRUE(f.net.node_knows(s, median));
  EXPECT_LE(rounds, 6 * static_cast<std::uint64_t>(ceil_log2(n)) + 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MedianSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 64, 100, 513));

class CollectSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollectSweep, LeaderGetsEveryToken) {
  const std::size_t k = GetParam();
  // Bounce mode: collection is Las-Vegas under contention.
  auto net = dgr::testing::make_ncc0(256, k + 3);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);

  std::vector<std::uint8_t> has(net.n(), 0);
  std::vector<std::uint64_t> token(net.n(), 0);
  for (std::size_t i = 0; i < k; ++i) {
    has[i] = 1;
    token[i] = 10'000 + i;
  }
  const ncc::Slot leader = path.order.back();
  const std::uint64_t before = net.stats().rounds;
  auto collected = prim::global_collect(net, tree, leader, has, token);
  const std::uint64_t rounds = net.stats().rounds - before;

  ASSERT_EQ(collected.size(), k);
  std::sort(collected.begin(), collected.end());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(collected[i], 10'000 + i);
  // Theorem 5: O(k + log n) — our direct variant: O(k/log n + log n).
  EXPECT_LE(rounds, k + 12 * static_cast<std::uint64_t>(
                            ceil_log2(net.n()) + 2));
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, CollectSweep,
                         ::testing::Values(0, 1, 5, 32, 100, 256));

TEST(DirectExchange, AllNotesDelivered) {
  auto net = dgr::testing::make_ncc0(100, 17);
  prim::PathOverlay path = prim::undirect_initial_path(net);

  // Everyone tells its path successor and predecessor a number.
  std::vector<std::vector<prim::DirectSend>> batch(net.n());
  std::size_t expected = 0;
  for (ncc::Slot s = 0; s < net.n(); ++s) {
    if (path.succ[s]) {
      batch[s].push_back({net.id_of(path.succ[s]), 1, s, false});
      ++expected;
    }
    if (path.pred[s]) {
      batch[s].push_back({net.id_of(path.pred[s]), 1, s, false});
      ++expected;
    }
  }
  std::atomic<std::size_t> delivered{0};
  prim::direct_exchange(net, batch,
                        [&](prim::Slot, ncc::NodeId, std::uint32_t tag,
                            std::uint64_t) {
                          if (tag == 1) delivered.fetch_add(1);
                        });
  EXPECT_EQ(delivered.load(), expected);
}

}  // namespace
}  // namespace dgr
