// Message-level tracing facility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "ncc/trace.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "testing.h"

namespace dgr {
namespace {

TEST(Trace, CountsDeliveriesExactly) {
  auto net = testing::make_ncc0(32, 4);
  ncc::Trace trace;
  net.set_trace(&trace);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  (void)prim::build_bbst(net, path);
  net.set_trace(nullptr);

  EXPECT_EQ(trace.delivered(), net.stats().messages_delivered);
  EXPECT_EQ(trace.bounced(), net.stats().messages_bounced);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.total_recorded(),
            trace.delivered() + trace.bounced() + trace.dropped());
  // The undirect tag (0x10) must appear exactly n-1 times.
  EXPECT_EQ(trace.per_tag().at(0x10), 31u);
}

TEST(Trace, RecordsDropsUnderLoss) {
  ncc::Config cfg;
  cfg.seed = 5;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.drop_probability = 0.5;
  ncc::Network net(64, cfg);
  ncc::Trace trace;
  net.set_trace(&trace);
  for (int r = 0; r < 10; ++r) {
    net.round([&](ncc::Ctx& ctx) {
      ctx.send(net.id_of((ctx.slot() + 1) % net.n()), ncc::make_msg(0xAB));
    });
  }
  net.round([](ncc::Ctx&) {});
  EXPECT_GT(trace.dropped(), 0u);
  EXPECT_GT(trace.delivered(), 0u);
  EXPECT_EQ(trace.dropped() + trace.delivered(), 640u);
}

TEST(Trace, CsvAndBusiestRound) {
  auto net = testing::make_ncc0(8, 6);
  ncc::Trace trace;
  net.set_trace(&trace);
  net.round([&](ncc::Ctx& ctx) {
    const auto s = ctx.initial_successor();
    if (s) ctx.send(s, ncc::make_msg(7).push(1));
  });
  net.round([](ncc::Ctx&) {});
  const auto [round, count] = trace.busiest_round();
  EXPECT_EQ(round, 0u);
  EXPECT_EQ(count, 7u);

  std::ostringstream os;
  trace.write_csv(os);
  EXPECT_NE(os.str().find("round,src,dst,tag,outcome"), std::string::npos);
  EXPECT_NE(os.str().find("delivered"), std::string::npos);

  trace.clear();
  EXPECT_EQ(trace.total_recorded(), 0u);
}

// The documented event order (trace.h): dest-major, and inside each
// destination its delivered messages in exactly the order its inbox_view()
// shows next round, then its bounced ones. Each bounced event must name a
// message its sender got back through ctx.bounced().
TEST(Trace, EventsFollowCanonicalPlacement) {
  constexpr std::size_t kN = 64;
  constexpr int kRounds = 6;
  ncc::Config cfg;
  cfg.seed = 23;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  net.set_trace(&trace);

  struct Arrival {
    ncc::Slot src;
    std::uint32_t tag;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<std::vector<Arrival>> inbox(kN);
  std::vector<std::vector<ncc::Bounced>> bounced(kN);
  std::size_t prev_lo = 0, prev_hi = 0;  // last round's events
  std::uint64_t total_bounced = 0;
  for (int r = 0; r <= kRounds; ++r) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::Slot s = ctx.slot();
      inbox[s].clear();
      for (const auto m : ctx.inbox_view())
        inbox[s].push_back({net.slot_of(m.src()), m.tag()});
      bounced[s].assign(ctx.bounced().begin(), ctx.bounced().end());
      if (r == kRounds) return;
      // Mostly uniform traffic; ~40% aims at slot 5, which oversubscribes.
      const auto ids = ctx.all_ids();
      const int sends = 1 + static_cast<int>(ctx.rng().below(3));
      for (int k = 0; k < sends; ++k) {
        const std::size_t pick =
            ctx.rng().chance(0.4) ? 5 : ctx.rng().below(ids.size());
        ctx.send(net.id_of(static_cast<ncc::Slot>(pick)),
                 ncc::make_msg(static_cast<std::uint32_t>(
                     ctx.rng().below(1000))));
      }
    });
    const std::size_t hi = trace.events().size();

    // Last round's events against what this round's bodies observed.
    std::vector<std::vector<Arrival>> delivered(kN);
    ncc::Slot last_dst = 0;
    bool in_bounces = false;
    for (std::size_t i = prev_lo; i < prev_hi; ++i) {
      const ncc::TraceEvent& e = trace.events()[i];
      ASSERT_GE(e.dst, last_dst) << "events are not dest-major";
      if (e.dst != last_dst) in_bounces = false;
      last_dst = e.dst;
      if (e.outcome == ncc::MessageOutcome::kDelivered) {
        ASSERT_FALSE(in_bounces) << "delivered event after a bounce at "
                                 << e.dst;
        delivered[e.dst].push_back({e.src, e.tag});
        continue;
      }
      ASSERT_EQ(e.outcome, ncc::MessageOutcome::kBounced);
      in_bounces = true;
      auto& back = bounced[e.src];
      const auto it =
          std::find_if(back.begin(), back.end(), [&](const auto& b) {
            return net.slot_of(b.dst) == e.dst && b.msg.tag == e.tag;
          });
      ASSERT_NE(it, back.end()) << "bounce event with no ctx.bounced() entry";
      back.erase(it);
      ++total_bounced;
    }
    for (ncc::Slot d = 0; d < kN; ++d) {
      EXPECT_EQ(delivered[d], inbox[d]) << "round " << r << " slot " << d;
      EXPECT_TRUE(bounced[d].empty()) << "untraced bounce at slot " << d;
    }
    prev_lo = prev_hi;
    prev_hi = hi;
  }
  EXPECT_GT(total_bounced, 0u);
  EXPECT_EQ(trace.bounced(), net.stats().messages_bounced);
}

// Strict mode throws on the first oversubscribed destination during layout,
// before placement, so the trace records no delivered or bounced event of
// that round — not even for the quieter destinations ordered before it.
TEST(Trace, StrictOverflowRecordsNoDeliveryEvents) {
  constexpr std::size_t kN = 64;
  ncc::Config cfg;
  cfg.seed = 29;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  net.set_trace(&trace);
  const ncc::NodeId hot = net.id_of(kN - 1);
  // Slots 0..7 receive at most 8 each (within capacity); the last slot
  // receives 63.
  const auto flood = [&](ncc::Ctx& ctx) {
    if (ctx.slot() == kN - 1) return;
    ctx.send(net.id_of(ctx.slot() / 8), ncc::make_msg(1));
    ctx.send(hot, ncc::make_msg(2));
  };
  EXPECT_THROW(net.round(flood), CheckError);
  EXPECT_EQ(trace.delivered(), 0u);
  EXPECT_EQ(trace.bounced(), 0u);
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, BoundedRawEventRetention) {
  ncc::Trace trace(/*max_events=*/5);
  for (std::uint64_t i = 0; i < 20; ++i) {
    trace.record({i, 0, 1, 1, ncc::MessageOutcome::kDelivered});
  }
  EXPECT_EQ(trace.events().size(), 5u);
  EXPECT_EQ(trace.total_recorded(), 20u);
}

}  // namespace
}  // namespace dgr
