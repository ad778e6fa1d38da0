// Fault-hook accounting edges (§8 robustness controls): the
// referee-context guard on set_drop_probability, crash() idempotency, and
// the legality of steering the simulation from a telemetry sink.
#include <gtest/gtest.h>

#include <vector>

#include "ncc/network.h"
#include "ncc/telemetry.h"
#include "testing.h"
#include "util/check.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::Network;
using ncc::RoundSample;
using ncc::Slot;

TEST(FaultHooks, SetDropProbabilityMidBodyThrows) {
  Network net = testing::make_ncc0(8);
  EXPECT_THROW(
      net.round([&](Ctx& ctx) {
        if (ctx.slot() == 0) net.set_drop_probability(0.5);
      }),
      CheckError);
}

TEST(FaultHooks, SetDropProbabilityMidBodyThrowsOnWorkerThreads) {
  ncc::Config cfg;
  cfg.seed = 3;
  cfg.threads = 4;
  Network net(64, cfg);
  EXPECT_THROW(
      net.round([&](Ctx& ctx) {
        if (ctx.slot() == 63) net.set_drop_probability(0.5);
      }),
      CheckError);
}

TEST(FaultHooks, SetDropProbabilityBetweenRoundsOk) {
  Network net = testing::make_ncc0(8);
  net.round([](Ctx&) {});
  EXPECT_NO_THROW(net.set_drop_probability(0.25));
  net.round([](Ctx&) {});
  EXPECT_NO_THROW(net.set_drop_probability(0.0));
}

TEST(FaultHooks, SetDropProbabilityRejectsOutOfRange) {
  Network net = testing::make_ncc0(8);
  EXPECT_THROW(net.set_drop_probability(-0.1), CheckError);
  EXPECT_THROW(net.set_drop_probability(1.5), CheckError);
}

TEST(FaultHooks, SetDropProbabilityWorksAfterBodyException) {
  Network net = testing::make_ncc0(8);
  EXPECT_THROW(net.round([&](Ctx& ctx) {
                 if (ctx.slot() == 2) throw CheckError("boom");
               }),
               CheckError);
  // The in-body guard must have been cleared on the exception path.
  EXPECT_NO_THROW(net.set_drop_probability(0.5));
}

TEST(FaultHooks, CrashIsIdempotent) {
  Network net = testing::make_ncc0(8);
  net.crash(3);
  EXPECT_EQ(net.crashed_count(), 1u);
  EXPECT_TRUE(net.is_crashed(3));
  net.crash(3);  // double crash: counters must not move
  EXPECT_EQ(net.crashed_count(), 1u);
  net.crash(5);
  EXPECT_EQ(net.crashed_count(), 2u);
  net.crash(3);
  net.crash(5);
  EXPECT_EQ(net.crashed_count(), 2u);
}

TEST(FaultHooks, CrashRejectsInvalidSlot) {
  Network net = testing::make_ncc0(8);
  EXPECT_THROW(net.crash(8), CheckError);
  EXPECT_THROW(net.crash(1000), CheckError);
}

/// Sink that records samples and optionally steers the run.
struct SteeringSink : ncc::TelemetrySink {
  Network& net;
  std::vector<RoundSample> samples;
  Slot crash_slot = ncc::kNoSlot;
  std::uint64_t crash_at = 0;    ///< crash (again) on every round >= this
  double set_loss = -1.0;        ///< applied once, on the first sample
  explicit SteeringSink(Network& n) : net(n) {}
  void on_round(const RoundSample& s) override {
    samples.push_back(s);
    if (set_loss >= 0.0 && samples.size() == 1)
      net.set_drop_probability(set_loss);
    if (crash_slot != ncc::kNoSlot && s.round >= crash_at)
      net.crash(crash_slot);  // deliberately re-crashes on later rounds
  }
};

TEST(FaultHooks, TelemetrySinkMaySetDropProbability) {
  Network net = testing::make_ncc0(16);
  SteeringSink sink(net);
  sink.set_loss = 1.0;  // from round 1 on, every message drops
  net.set_telemetry(&sink);
  for (int r = 0; r < 4; ++r) {
    net.round([](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(succ, ncc::make_msg(1).push(7));
    });
  }
  net.set_telemetry(nullptr);
  ASSERT_EQ(sink.samples.size(), 4u);
  EXPECT_EQ(sink.samples[0].dropped, 0u);  // loss flips after round 0
  EXPECT_GT(sink.samples[1].dropped, 0u);
  EXPECT_GT(net.stats().messages_dropped, 0u);
}

TEST(FaultHooks, TelemetrySinkCrashAppliesNextRoundAndStaysStable) {
  Network net = testing::make_ncc0(8);
  SteeringSink sink(net);
  sink.crash_slot = 4;
  sink.crash_at = 0;  // crash slot 4 after round 0, re-crash every round
  net.set_telemetry(&sink);
  std::vector<int> ran(8, 0);
  for (int r = 0; r < 4; ++r) {
    net.round([&](Ctx& ctx) { ++ran[ctx.slot()]; });
  }
  net.set_telemetry(nullptr);
  EXPECT_EQ(ran[4], 1);  // ran round 0 only; crashed before round 1
  EXPECT_EQ(ran[0], 4);
  ASSERT_EQ(sink.samples.size(), 4u);
  EXPECT_EQ(sink.samples[0].crashed, 0u);
  // Re-crashing the same slot from the hook must not inflate any counter.
  EXPECT_EQ(sink.samples[1].crashed, 1u);
  EXPECT_EQ(sink.samples[2].crashed, 1u);
  EXPECT_EQ(sink.samples[3].crashed, 1u);
  EXPECT_EQ(net.crashed_count(), 1u);
}

TEST(FaultHooks, CrashedDestinationCountsAsDropNotDelivery) {
  ncc::Config cfg;
  cfg.seed = 11;
  cfg.shuffle_path = false;  // slot 0's successor is slot 1
  Network net(2, cfg);
  net.crash(1);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0)
      ctx.send(ctx.initial_successor(), ncc::make_msg(9).push(1));
  });
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

}  // namespace
}  // namespace dgr
