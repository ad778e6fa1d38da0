// SendQueue: pacing, retry-on-bounce, and drain guarantees.
#include <gtest/gtest.h>

#include <atomic>

#include "ncc/send_queue.h"
#include "testing.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::NodeId;
using ncc::SendQueue;
using ncc::Slot;

TEST(SendQueue, PacesWithinCapacity) {
  auto net = testing::make_strict_ncc0(16, 1);
  const auto& order = net.path_order();
  const Slot head = order.front();
  const ncc::NodeRef succ = net.ref_of(order[1]);

  SendQueue q;
  for (int i = 0; i < 100; ++i) q.push(succ, make_msg(7).push(i));

  std::atomic<int> received{0};
  while (!q.idle()) {
    net.round([&](Ctx& ctx) {
      received += static_cast<int>(ctx.inbox_view().size());
      if (ctx.slot() == head) q.pump(ctx);
    });
  }
  net.round([&](Ctx& ctx) {
    received += static_cast<int>(ctx.inbox_view().size());
  });
  EXPECT_EQ(received.load(), 100);
  // 100 messages at `capacity` per round.
  EXPECT_LE(net.stats().max_send_in_round,
            static_cast<std::uint64_t>(net.capacity()));
}

TEST(SendQueue, DrainsUnderHeavyContention) {
  // Everyone floods one target; bounces must eventually all land.
  ncc::Config cfg;
  cfg.seed = 3;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(128, cfg);
  const ncc::NodeRef target = net.ref_of(0);
  const int per_node = 5;

  std::vector<SendQueue> queues(net.n());
  for (Slot s = 1; s < net.n(); ++s)
    for (int i = 0; i < per_node; ++i)
      queues[s].push(target, make_msg(9).push(i));

  std::atomic<int> received{0};
  std::atomic<int> busy{1};
  while (busy.load() != 0) {
    busy.store(0);
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) {
        for (const auto m : ctx.inbox_view())
          if (m.tag() == 9) ++received;
      }
      queues[ctx.slot()].pump(ctx);
      if (!queues[ctx.slot()].idle()) ++busy;
    });
  }
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0)
      for (const auto m : ctx.inbox_view())
        if (m.tag() == 9) ++received;
  });
  EXPECT_EQ(received.load(), 127 * per_node);
  EXPECT_GT(net.stats().messages_bounced, 0u);  // contention actually hit
  // Drain time ~ total/capacity + slack.
  EXPECT_LE(net.stats().rounds,
            static_cast<std::uint64_t>(127 * per_node / net.capacity() + 32));
}

TEST(SendQueue, TagFilterIgnoresForeignBounces) {
  ncc::Config cfg;
  cfg.seed = 5;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(64, cfg);
  const ncc::NodeRef target = net.ref_of(0);

  // Two queues at the same node with different tags; flood via raw sends of
  // a third tag so bounces of tag 0xAA must not enter queue 0xBB.
  SendQueue qa(0xAA), qb(0xBB);
  for (int i = 0; i < 40; ++i) qa.push(target, make_msg(0xAA).push(i));

  std::atomic<int> got_a{0};
  std::atomic<int> rounds_left{200};
  while (!qa.idle() && rounds_left.load() > 0) {
    --rounds_left;
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) {
        for (const auto m : ctx.inbox_view())
          if (m.tag() == 0xAA) ++got_a;
      }
      if (ctx.slot() == 1) {
        qa.pump(ctx);
        qb.pump(ctx);
        EXPECT_EQ(qb.backlog(), 0u);
      }
      // Other nodes flood the target to provoke bounces at node 1's traffic.
      if (ctx.slot() > 1 && ctx.sends_left() > 0) {
        ctx.send(target, make_msg(0xCC));
      }
    });
  }
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0)
      for (const auto m : ctx.inbox_view())
        if (m.tag() == 0xAA) ++got_a;
  });
  EXPECT_EQ(got_a.load(), 40);
}

}  // namespace
}  // namespace dgr
