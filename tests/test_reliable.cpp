// Reliable exactly-once exchange under link loss (§8 robustness).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "graph/generators.h"
#include "primitives/path.h"
#include "primitives/reliable.h"
#include "realization/explicit_degree.h"
#include "testing.h"
#include "util/math_util.h"

namespace dgr {
namespace {

using prim::DirectSend;

// Runs an all-to-one + ring exchange at loss rate p; asserts exactly-once.
void run_exchange(double p, std::size_t n, std::uint64_t seed) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.drop_probability = p;
  ncc::Network net(n, cfg);

  std::vector<std::vector<DirectSend>> batch(n);
  std::size_t expected = 0;
  for (ncc::Slot s = 1; s < n; ++s) {
    // Everyone sends two tokens to node 0 and one to a peer.
    batch[s].push_back({net.id_of(0), 1, s * 10 + 1, false});
    batch[s].push_back({net.id_of(0), 1, s * 10 + 2, false});
    batch[s].push_back({net.id_of((s + 1) % n), 2, s, false});
    expected += 3;
  }

  std::mutex mu;
  std::map<std::tuple<ncc::Slot, ncc::NodeId, std::uint64_t>, int> seen;
  std::atomic<std::size_t> delivered{0};
  prim::reliable_exchange(
      net, batch,
      [&](prim::Slot receiver, ncc::NodeId src, std::uint32_t,
          std::uint64_t payload) {
        delivered.fetch_add(1);
        std::scoped_lock lk(mu);
        ++seen[{receiver, src, payload}];
      });

  EXPECT_EQ(delivered.load(), expected) << "p=" << p;
  for (const auto& [key, count] : seen)
    EXPECT_EQ(count, 1) << "duplicate delivery at p=" << p;
  if (p > 0) {
    EXPECT_GT(net.stats().messages_dropped, 0u);
  }
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, ExactlyOnceUnderLoss) { run_exchange(GetParam(), 64, 3); }

INSTANTIATE_TEST_SUITE_P(DropRates, LossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6));

TEST(Reliable, HeavyContentionAndLoss) {
  // All nodes target one receiver with several messages at 30% loss.
  ncc::Config cfg;
  cfg.seed = 9;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.drop_probability = 0.3;
  ncc::Network net(96, cfg);
  std::vector<std::vector<DirectSend>> batch(net.n());
  std::size_t expected = 0;
  for (ncc::Slot s = 1; s < net.n(); ++s) {
    for (int i = 0; i < 4; ++i) {
      batch[s].push_back({net.id_of(0), 7, static_cast<std::uint64_t>(i),
                          false});
      ++expected;
    }
  }
  std::atomic<std::size_t> delivered{0};
  prim::reliable_exchange(net, batch,
                          [&](prim::Slot, ncc::NodeId, std::uint32_t,
                              std::uint64_t) { delivered.fetch_add(1); });
  EXPECT_EQ(delivered.load(), expected);
}

TEST(Reliable, LossyExplicitizationStillExact) {
  // Build the implicit realization over reliable links, then flip on 25%
  // loss for the explicitization — the overlay must still come out exact.
  const std::size_t n = 80;
  auto net = testing::make_ncc0(n, 5);
  const auto d = graph::regular_sequence(n, 6);
  const auto implicit_result = realize::realize_degrees_implicit(net, d);
  ASSERT_TRUE(implicit_result.realizable);

  net.set_drop_probability(0.25);
  const auto result = realize::make_explicit_reliable(net, implicit_result);
  ASSERT_TRUE(result.realizable);
  for (ncc::Slot s = 0; s < net.n(); ++s)
    EXPECT_EQ(result.adjacency[s].size(), 6u);
  EXPECT_GT(net.stats().messages_dropped, 0u);
}

TEST(Reliable, UnreliableExchangeWouldLose) {
  // Negative control: the *plain* SendQueue pipeline has no retransmission,
  // so under loss the naive exchange misses messages — motivating the
  // acked protocol. (Bounded rounds: we run the same number of rounds the
  // reliable protocol needed and count what arrived.)
  ncc::Config cfg;
  cfg.seed = 10;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.drop_probability = 0.4;
  ncc::Network net(64, cfg);
  std::atomic<std::size_t> got{0};
  net.round([&](ncc::Ctx& ctx) {
    if (ctx.slot() != 0) ctx.send(net.id_of(0), ncc::make_msg(3));
  });
  for (int r = 0; r < 8; ++r) {
    net.round([&](ncc::Ctx& ctx) {
      if (ctx.slot() == 0) got.fetch_add(ctx.inbox_view().size());
    });
  }
  EXPECT_LT(got.load(), 63u);  // w.h.p. several of 63 sends were dropped
}

TEST(Reliable, BoundedVariantSurvivesCrashedPeers) {
  // 8 of 64 nodes crash before the exchange; messages to them must be
  // abandoned after max_attempts instead of livelocking, and everything
  // addressed to live nodes must still arrive exactly once.
  ncc::Config cfg;
  cfg.seed = 12;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(64, cfg);
  for (ncc::Slot s = 0; s < 8; ++s) net.crash(s);
  ASSERT_EQ(net.crashed_count(), 8u);

  std::vector<std::vector<prim::DirectSend>> batch(net.n());
  std::size_t to_live = 0, to_dead = 0;
  for (ncc::Slot s = 8; s < net.n(); ++s) {
    for (ncc::Slot t = 0; t < 16; ++t) {
      if (t == s) continue;
      batch[s].push_back({net.id_of(t), 5, t, false});
      (t < 8 ? to_dead : to_live) += 1;
    }
  }
  std::atomic<std::size_t> delivered{0};
  const auto result = prim::reliable_exchange_bounded(
      net, batch,
      [&](prim::Slot, ncc::NodeId, std::uint32_t, std::uint64_t) {
        delivered.fetch_add(1);
      },
      /*retransmit_after=*/3, /*max_attempts=*/4);
  EXPECT_EQ(delivered.load(), to_live);
  EXPECT_EQ(result.delivered, to_live);
  EXPECT_EQ(result.given_up, to_dead);
}

TEST(Reliable, BoundedVariantMatchesUnboundedWhenHealthy) {
  ncc::Config cfg;
  cfg.seed = 13;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.drop_probability = 0.2;
  ncc::Network net(48, cfg);
  std::vector<std::vector<prim::DirectSend>> batch(net.n());
  std::size_t expected = 0;
  for (ncc::Slot s = 1; s < net.n(); ++s) {
    batch[s].push_back({net.id_of(0), 6, s, false});
    ++expected;
  }
  std::atomic<std::size_t> delivered{0};
  const auto result = prim::reliable_exchange_bounded(
      net, batch,
      [&](prim::Slot, ncc::NodeId, std::uint32_t, std::uint64_t) {
        delivered.fetch_add(1);
      },
      /*retransmit_after=*/4, /*max_attempts=*/64);
  EXPECT_EQ(delivered.load(), expected);
  EXPECT_EQ(result.given_up, 0u);
}

TEST(Reliable, CrashedNodesAreSilent) {
  auto net = testing::make_ncc0(16, 14);
  const auto& order = net.path_order();
  net.crash(order[3]);
  // The crashed node neither runs bodies nor receives.
  std::atomic<int> crashed_ran{0};
  net.round([&](ncc::Ctx& ctx) {
    if (ctx.slot() == order[3]) crashed_ran.fetch_add(1);
    const auto s = ctx.initial_successor();
    if (s) ctx.send(s, ncc::make_msg(1));
  });
  net.round([&](ncc::Ctx& ctx) {
    if (ctx.slot() == order[3]) crashed_ran.fetch_add(1);
  });
  EXPECT_EQ(crashed_ran.load(), 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);  // the message sent to it
}

TEST(Reliable, EmptyBatchesTerminateImmediately) {
  auto net = testing::make_ncc0(8, 11);
  std::vector<std::vector<DirectSend>> batch(net.n());
  const auto rounds = prim::reliable_exchange(
      net, batch,
      [](prim::Slot, ncc::NodeId, std::uint32_t, std::uint64_t) { FAIL(); });
  EXPECT_LE(rounds, 2u);
}

}  // namespace
}  // namespace dgr
