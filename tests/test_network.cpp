// Model-rule enforcement and determinism of the NCC engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "ncc/knowledge.h"
#include "testing.h"
#include "util/check.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::NodeId;
using ncc::Slot;

TEST(Network, IdsAreUniqueAndResolvable) {
  auto net = testing::make_ncc0(100, 3);
  std::set<NodeId> ids;
  for (Slot s = 0; s < 100; ++s) {
    ids.insert(net.id_of(s));
    EXPECT_EQ(net.slot_of(net.id_of(s)), s);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(Network, InitialKnowledgeIsPathSuccessor) {
  auto net = testing::make_ncc0(50, 4);
  const auto& order = net.path_order();
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_TRUE(net.node_knows(order[i], net.id_of(order[i + 1])));
  }
  // The tail knows nobody but itself; knowledge size 1.
  EXPECT_EQ(net.knowledge_size(order.back()), 1u);
  EXPECT_EQ(net.knowledge_size(order.front()), 2u);
}

TEST(Network, SendToUnknownIdThrows) {
  auto net = testing::make_ncc0(10, 5);
  // Find a node and an ID it does not know.
  const auto& order = net.path_order();
  const Slot tail = order.back();
  const NodeId stranger = net.id_of(order.front());
  ASSERT_FALSE(net.node_knows(tail, stranger));
  EXPECT_THROW(net.round([&](Ctx& ctx) {
    if (ctx.slot() == tail) ctx.send(stranger, make_msg(1));
  }),
               CheckError);
}

TEST(Network, SendCapEnforced) {
  auto net = testing::make_ncc0(4, 6);
  const auto& order = net.path_order();
  const Slot head = order.front();
  const NodeId succ = net.id_of(order[1]);
  EXPECT_THROW(net.round([&](Ctx& ctx) {
    if (ctx.slot() != head) return;
    for (int i = 0; i <= net.capacity(); ++i) ctx.send(succ, make_msg(1));
  }),
               CheckError);
}

TEST(Network, ForwardingUnknownIdInPayloadThrows) {
  auto net = testing::make_ncc0(10, 7);
  const auto& order = net.path_order();
  const Slot head = order.front();
  const NodeId succ = net.id_of(order[1]);
  const NodeId stranger = net.id_of(order.back());
  ASSERT_FALSE(net.node_knows(head, stranger));
  EXPECT_THROW(net.round([&](Ctx& ctx) {
    if (ctx.slot() == head) ctx.send(succ, make_msg(1).push_id(stranger));
  }),
               CheckError);
}

TEST(Network, MessageDeliveryNextRound) {
  auto net = testing::make_ncc0(3, 8);
  const auto& order = net.path_order();
  const Slot head = order.front();
  const Slot second = order[1];
  int seen = 0;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == head)
      ctx.send(ctx.initial_successor(), make_msg(99).push(1234));
  });
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != second) return;
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() == 99) {
        EXPECT_EQ(m.word(0), 1234u);
        EXPECT_EQ(m.src(), net.id_of(head));
        ++seen;
      }
    }
  });
  EXPECT_EQ(seen, 1);
}

TEST(Network, ReceiverLearnsSenderAndIdWords) {
  auto net = testing::make_ncc0(4, 9);
  const auto& order = net.path_order();
  const Slot a = order[0];
  const Slot b = order[1];
  const Slot c = order[2];
  // a knows b; b knows c. a -> b: just the src. b -> a is impossible until
  // b learns a's ID from the delivery.
  EXPECT_FALSE(net.node_knows(b, net.id_of(a)));
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == a) ctx.send(net.id_of(b), make_msg(1));
  });
  net.round([](Ctx&) {});
  EXPECT_TRUE(net.node_knows(b, net.id_of(a)));

  // b forwards c's ID to a (b knows both); a learns c.
  EXPECT_FALSE(net.node_knows(a, net.id_of(c)));
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == b)
      ctx.send(net.id_of(a), make_msg(2).push_id(net.id_of(c)));
  });
  net.round([](Ctx&) {});
  EXPECT_TRUE(net.node_knows(a, net.id_of(c)));
}

TEST(Network, StrictModeThrowsOnOverflow) {
  auto net = testing::make_strict_ncc0(64, 10);
  // Everyone floods the path head's successor... instead: all nodes that
  // know someone send to their successor — at most 1 each, fine. To force
  // overflow we need many-to-one: teach everyone one target via a chain is
  // long; simpler: use NCC1 strict.
  ncc::Config cfg;
  cfg.seed = 11;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  ncc::Network clique(256, cfg);
  const NodeId target = clique.id_of(0);
  EXPECT_THROW(
      {
        clique.round([&](Ctx& ctx) { ctx.send(target, make_msg(1)); });
        clique.round([](Ctx&) {});
      },
      CheckError);
}

TEST(Network, BounceModeReturnsExcessToSenders) {
  ncc::Config cfg;
  cfg.seed = 12;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(200, cfg);
  const NodeId target = net.id_of(0);
  std::atomic<int> bounced{0};
  std::atomic<int> delivered{0};
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) ctx.send(target, make_msg(1));
  });
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0)
      delivered += static_cast<int>(ctx.inbox_view().size());
    bounced += static_cast<int>(ctx.bounced().size());
  });
  EXPECT_EQ(delivered.load(), net.capacity());
  EXPECT_EQ(bounced.load(), 199 - net.capacity());
  EXPECT_EQ(net.stats().messages_bounced, static_cast<std::uint64_t>(199 - net.capacity()));
}

TEST(Network, DeterministicTranscriptAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    ncc::Config cfg;
    cfg.seed = 77;
    cfg.threads = threads;
    ncc::Network net(300, cfg);
    // A randomized gossip: each node with knowledge forwards a token coin.
    std::vector<std::uint64_t> acc(net.n(), 0);
    for (int r = 0; r < 20; ++r) {
      net.round([&](Ctx& ctx) {
        for (const auto m : ctx.inbox_view()) acc[ctx.slot()] += m.word(0);
        const ncc::NodeRef s = ctx.initial_successor();
        if (s && ctx.rng().chance(0.5))
          ctx.send(s, make_msg(1).push(ctx.rng().below(1000)));
      });
    }
    return acc;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(Network, RoundBudgetGuard) {
  ncc::Config cfg;
  cfg.max_rounds = 5;
  ncc::Network net(4, cfg);
  for (int i = 0; i < 5; ++i) net.round([](Ctx&) {});
  EXPECT_THROW(net.round([](Ctx&) {}), CheckError);
}

TEST(Network, Ncc1KnowsEverything) {
  auto net = testing::make_ncc1(30, 13);
  for (Slot s = 0; s < 30; ++s) {
    EXPECT_EQ(net.knowledge_size(s), 30u);
    for (Slot t = 0; t < 30; ++t)
      EXPECT_TRUE(net.node_knows(s, net.id_of(t))) << s << " -> " << t;
  }
  net.round([&](Ctx& ctx) {
    EXPECT_EQ(ctx.all_ids().size(), 30u);
    // Any node can message any other directly.
    ctx.send(ctx.all_ids().front(), make_msg(1));
  });
}

// Set-up takes all_ids() straight from the ID draw: it must still be the
// ascending, duplicate-free image of id_of over every slot.
TEST(Network, AllIdsAreTheSortedSlotIds) {
  for (const bool random_ids : {true, false}) {
    const std::size_t n = 40;
    ncc::Config cfg;
    cfg.seed = 17;
    cfg.initial = ncc::InitialKnowledge::kClique;
    cfg.random_ids = random_ids;
    ncc::Network net(n, cfg);
    std::vector<NodeId> expected;
    for (Slot s = 0; s < n; ++s) expected.push_back(net.id_of(s));
    std::sort(expected.begin(), expected.end());
    std::vector<NodeId> all;
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) all.assign(ctx.all_ids().begin(), ctx.all_ids().end());
    });
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end())) << random_ids;
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << random_ids;
    EXPECT_EQ(all, expected) << random_ids;
  }
}

// End to end on a learning network: node b learns a's ID from a delivery
// and c's ID from a's forwarded word, and re-forwards c's. Both resolve to
// the right slots; an unknown real ID, and IDs sharing the low 32 bits of
// either known ID, never resolve, and forwarding one still fails with the
// KT0 diagnostic and no trace.
TEST(Network, VerifiedIdCacheNeverResolvesUnknownIds) {
  auto net = testing::make_ncc0(8, 21);
  const auto& order = net.path_order();
  const Slot a = order[0], b = order[1], c = order[2], d = order[3];
  const NodeId id_a = net.id_of(a), id_c = net.id_of(c), id_d = net.id_of(d);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == a) ctx.send(net.id_of(b), make_msg(1).push_id(id_a));
  });
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == b) ctx.send(id_a, make_msg(2).push_id(id_c));
  });
  EXPECT_EQ(net.known_slot_of(b, id_a), a);
  EXPECT_EQ(net.known_slot_of(b, id_c), c);
  // IDs are drawn below 16 n^2, so the aliases are no node's ID.
  const NodeId high = std::uint64_t{1} << 32;
  for (const NodeId stranger : {id_d, id_a + high, id_c + high}) {
    EXPECT_EQ(net.known_slot_of(b, stranger), ncc::kNoSlot) << stranger;
    EXPECT_FALSE(net.node_knows(b, stranger)) << stranger;
  }
  const std::size_t known_before = net.knowledge_size(a);
  const std::uint64_t sent_before = net.stats().messages_sent;
  for (const NodeId stranger : {id_d, id_a + high, id_c + high}) {
    std::string what;
    try {
      net.round([&](Ctx& ctx) {
        if (ctx.slot() == b) ctx.send(id_a, make_msg(3).push_id(stranger));
      });
    } catch (const CheckError& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("forwards unknown ID"), std::string::npos) << what;
  }
  net.round([](Ctx&) {});
  EXPECT_EQ(net.stats().messages_sent, sent_before);
  EXPECT_EQ(net.knowledge_size(a), known_before);
  EXPECT_EQ(net.known_slot_of(a, id_d), ncc::kNoSlot);
}

TEST(Network, ScopedRoundsAttribution) {
  auto net = testing::make_ncc0(8, 14);
  {
    ncc::ScopedRounds scope(net, "phase-a");
    net.round([](Ctx&) {});
    net.round([](Ctx&) {});
  }
  EXPECT_EQ(net.stats().scope_rounds.at("phase-a"), 2u);
}

TEST(Network, StatsCountMessages) {
  auto net = testing::make_ncc0(10, 15);
  net.round([&](Ctx& ctx) {
    const ncc::NodeRef s = ctx.initial_successor();
    if (s) ctx.send(s, make_msg(1));
  });
  EXPECT_EQ(net.stats().messages_sent, 9u);
  net.round([](Ctx&) {});
  EXPECT_EQ(net.stats().messages_delivered, 9u);
  EXPECT_EQ(net.stats().rounds, 2u);
}

}  // namespace
}  // namespace dgr
