// Engine telemetry samples (ncc/telemetry.h) and the interval-folding
// collector (scenario/telemetry.h).
#include <gtest/gtest.h>

#include <vector>

#include "ncc/network.h"
#include "ncc/telemetry.h"
#include "scenario/telemetry.h"
#include "testing.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::Network;
using ncc::RoundSample;

struct Recorder : ncc::TelemetrySink {
  std::vector<RoundSample> samples;
  void on_round(const RoundSample& s) override { samples.push_back(s); }
};

TEST(Telemetry, SamplesAreDeltasThatSumToNetStats) {
  ncc::Config cfg;
  cfg.seed = 7;
  cfg.min_capacity = 4;
  cfg.capacity_factor = 1;  // tiny capacity: force bounces too
  cfg.initial = ncc::InitialKnowledge::kClique;  // everyone knows the hot id
  Network net(32, cfg);
  Recorder rec;
  net.set_telemetry(&rec);
  net.set_drop_probability(0.2);
  for (int r = 0; r < 12; ++r) {
    net.round([&](Ctx& ctx) {
      // Everyone floods one hot slot (bounces) plus the successor.
      const ncc::NodeId hot = net.id_of(0);
      if (ctx.knows(hot) && ctx.slot() != 0)
        ctx.send(hot, ncc::make_msg(1).push(2));
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(succ, ncc::make_msg(1).push(3));
    });
  }
  net.set_telemetry(nullptr);
  ASSERT_EQ(rec.samples.size(), 12u);
  RoundSample sum;
  std::uint64_t max_send = 0;
  std::uint64_t max_recv = 0;
  for (const auto& s : rec.samples) {
    sum.sent += s.sent;
    sum.delivered += s.delivered;
    sum.bounced += s.bounced;
    sum.dropped += s.dropped;
    max_send = std::max<std::uint64_t>(max_send, s.max_send);
    max_recv = std::max<std::uint64_t>(max_recv, s.max_recv);
  }
  const ncc::NetStats& st = net.stats();
  EXPECT_EQ(sum.sent, st.messages_sent);
  EXPECT_EQ(sum.delivered, st.messages_delivered);
  EXPECT_EQ(sum.bounced, st.messages_bounced);
  EXPECT_EQ(sum.dropped, st.messages_dropped);
  EXPECT_EQ(max_send, st.max_send_in_round);
  EXPECT_EQ(max_recv, st.max_recv_in_round);
  EXPECT_GT(sum.bounced, 0u);
  EXPECT_GT(sum.dropped, 0u);
  // Round indices are consecutive.
  for (std::size_t i = 0; i < rec.samples.size(); ++i)
    EXPECT_EQ(rec.samples[i].round, i);
}

TEST(Telemetry, FrontierFieldTracksActiveSet) {
  Network net = testing::make_ncc0(16, 5);
  Recorder rec;
  net.set_telemetry(&rec);
  net.clear_active();
  net.wake(3);
  net.round_active([&](Ctx& ctx) {
    const ncc::NodeRef succ = ctx.initial_successor();
    if (succ) ctx.send(succ, ncc::make_msg(2).push(1));
  });
  net.set_telemetry(nullptr);
  ASSERT_EQ(rec.samples.size(), 1u);
  EXPECT_TRUE(rec.samples[0].frontier_tracked);
  // Exactly the woken slot ran; its successor (if any) is the frontier.
  EXPECT_EQ(rec.samples[0].frontier, net.active_count());
}

TEST(Telemetry, DetachStopsSampling) {
  Network net = testing::make_ncc0(8);
  Recorder rec;
  net.set_telemetry(&rec);
  net.round([](Ctx&) {});
  net.set_telemetry(nullptr);
  net.round([](Ctx&) {});
  EXPECT_EQ(rec.samples.size(), 1u);
  EXPECT_EQ(net.stats().rounds, 2u);
}

TEST(Telemetry, IntervalFoldingMatchesTotals) {
  Network net = testing::make_ncc0(24, 9);
  scenario::Telemetry tel(/*interval_rounds=*/4, /*ring_capacity=*/64);
  net.set_telemetry(&tel);
  for (int r = 0; r < 10; ++r) {
    net.round([](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(succ, ncc::make_msg(1).push(1));
    });
  }
  net.set_telemetry(nullptr);
  tel.flush();
  // 10 rounds at interval 4: records of 4, 4, and a flushed tail of 2.
  ASSERT_EQ(tel.intervals(), 3u);
  EXPECT_EQ(tel.interval(0).rounds, 4u);
  EXPECT_EQ(tel.interval(1).rounds, 4u);
  EXPECT_EQ(tel.interval(2).rounds, 2u);
  EXPECT_EQ(tel.interval(0).first_round, 0u);
  EXPECT_EQ(tel.interval(1).first_round, 4u);
  EXPECT_EQ(tel.interval(2).first_round, 8u);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < tel.intervals(); ++i)
    sent += tel.interval(i).sent;
  EXPECT_EQ(sent, tel.totals().sent);
  EXPECT_EQ(sent, net.stats().messages_sent);
  EXPECT_EQ(tel.totals().rounds, 10u);
  EXPECT_EQ(tel.evicted(), 0u);
}

TEST(Telemetry, RingEvictsOldestButTotalsSurvive) {
  Network net = testing::make_ncc0(8, 2);
  scenario::Telemetry tel(/*interval_rounds=*/2, /*ring_capacity=*/3);
  net.set_telemetry(&tel);
  for (int r = 0; r < 14; ++r) net.round([](Ctx&) {});
  net.set_telemetry(nullptr);
  tel.flush();
  // 7 closed intervals, ring keeps the newest 3.
  EXPECT_EQ(tel.intervals(), 3u);
  EXPECT_EQ(tel.evicted(), 4u);
  EXPECT_EQ(tel.interval(0).first_round, 8u);
  EXPECT_EQ(tel.interval(1).first_round, 10u);
  EXPECT_EQ(tel.interval(2).first_round, 12u);
  EXPECT_EQ(tel.totals().rounds, 14u);
}

TEST(Telemetry, CrashedCountFoldsAsEndOfInterval) {
  Network net = testing::make_ncc0(8, 3);
  scenario::Telemetry tel(/*interval_rounds=*/2, /*ring_capacity=*/8);
  net.set_telemetry(&tel);
  net.round([](Ctx&) {});
  net.crash(1);
  net.crash(1);  // idempotent under telemetry too
  net.round([](Ctx&) {});
  net.round([](Ctx&) {});
  net.crash(2);
  net.round([](Ctx&) {});
  net.set_telemetry(nullptr);
  tel.flush();
  ASSERT_EQ(tel.intervals(), 2u);
  EXPECT_EQ(tel.interval(0).crashed_end, 1u);
  EXPECT_EQ(tel.interval(1).crashed_end, 2u);
  EXPECT_EQ(tel.totals().crashed_end, 2u);
}

}  // namespace
}  // namespace dgr
