// Block-parallel delivery: once a round's outboxes clear the parallelism
// grain, the count, layout, placement and knowledge learn passes run per
// destination block (one fixed slot range per worker), and the
// overflow-acceptance pre-draw fans out across the process-wide executor —
// and the transcript contract says nobody may be able to tell. These tests
// drive workloads heavy enough to take every parallel path (the grains are
// ~2048 outbox words / ~512 oversubscribed arrivals) and pin the full
// observable state bit-identical across thread counts {1,2,3,4,8},
// sparse/dense scheduling, traced/untraced delivery, and overflow policies
// — including a skewed fan-in where one destination draws ~90% of all
// traffic, bench_engine's flood, sparse and 8-hot-destination overflow
// shapes, and the block edges (uneven blocks, empty blocks, one-block
// traffic, lossy and crashed networks, serial bodies feeding parallel
// delivery, an NCC0 one-block fan-in whose learn pass is spread over the
// workers). The per-phase timing satellite is covered at the bottom:
// populated while timing is on, all-zero (no clocks read) when detached.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ncc/telemetry.h"
#include "ncc/trace.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::NodeId;
using ncc::Slot;

using testing::RunFingerprint;

// Clique flood shapes. kHotSet4 is the heavy flood with a 4-node hot set:
// every round moves ~n*cap/2 messages (far past the placement grain) and
// the hot destinations oversubscribe by an order of magnitude (past the
// pre-draw grain), so the parallel placement AND parallel RNG-replay paths
// both run at threads>1. The other three are bench_engine's shapes: the
// full capacity() budget to uniform targets (about half the destinations
// oversubscribe), one send per node, and half the budget aimed at 8 hot
// destinations (nearly everything bounces).
enum class Flood { kHotSet4, kUniform, kSparse, kHot8 };

RunFingerprint run_flood(unsigned threads, bool traced, Flood shape) {
  constexpr std::size_t kN = 512;
  ncc::Config cfg;
  cfg.seed = 814;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  const int sends = shape == Flood::kUniform  ? net.capacity()
                    : shape == Flood::kSparse ? 1
                                              : net.capacity() / 2;
  for (int r = 0; r < 6; ++r) {
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view()) in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      const auto ids = ctx.all_ids();
      for (int i = 0; i < sends; ++i) {
        std::size_t pick = 0;
        if (shape == Flood::kHotSet4) {
          pick = ctx.rng().chance(0.25) ? ctx.rng().below(4)
                                        : ctx.rng().below(ids.size());
        } else {
          pick = ctx.rng().below(shape == Flood::kHot8 ? 8 : ids.size());
        }
        ctx.send(ids[pick], ncc::make_msg(5).push(ctx.rng().below(1u << 20)));
      }
    });
  }
  fp.net = testing::net_fingerprint(net);
  return fp;
}

// Skewed fan-in: ~90% of every round's traffic lands on one destination.
// One delivery block holds nearly all the records, and the hot
// destination's overflow draw dominates the pre-draw.
RunFingerprint run_skewed_fan_in(unsigned threads, bool traced) {
  constexpr std::size_t kN = 384;
  ncc::Config cfg;
  cfg.seed = 4242;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  const int sends = net.capacity() / 2;
  for (int r = 0; r < 6; ++r) {
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view()) in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      const auto ids = ctx.all_ids();
      for (int i = 0; i < sends; ++i) {
        const std::size_t pick = ctx.rng().chance(0.9)
                                     ? 0
                                     : ctx.rng().below(ids.size());
        ctx.send(ids[pick], ncc::make_msg(3).push(ctx.rng().below(1u << 18)));
      }
    });
  }
  fp.net = testing::net_fingerprint(net);
  return fp;
}

// Path-relay gossip on NCC0 knowledge (the learn pass actually runs):
// every node relays to its path successor its own ID plus everything it
// heard last round, batched 4 IDs to a trailer. IDs accumulate down the
// path, so per-round trailered traffic grows past the learn-pass parallel
// grain within a few rounds while knowledge spreads node by node. The body
// is inactive-silent (a node with an empty inbox after round 0 sends
// nothing), so it runs identically under both schedulers.
RunFingerprint run_gossip_relay(unsigned threads, bool sparse, bool traced) {
  constexpr std::size_t kN = 256;
  ncc::Config cfg;
  cfg.seed = 99;
  cfg.threads = threads;
  cfg.sparse_rounds = sparse;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  for (Slot s = 0; s < static_cast<Slot>(kN); ++s) net.wake(s);
  for (int r = 0; r < 16 && net.has_active(); ++r) {
    net.round_active([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      // Collect the ID words delivered this round (learned by last round's
      // learn pass, so forwarding them is KT0-legal now).
      std::vector<NodeId> heard;
      bool active = r == 0;
      for (const auto m : ctx.inbox_view()) {
        active = true;
        in = hash_mix(in, m.src(), m.tag());
        for (std::size_t w = 0; w < m.size(); ++w) {
          if (m.id_mask() & (1u << w)) heard.push_back(m.word(w));
          in = hash_mix(in, m.id_mask(), m.word(w));
        }
      }
      const ncc::NodeRef succ = ctx.initial_successor();
      if (!active || !succ) return;
      int budget = ctx.capacity() - 1;
      ctx.send(succ, make_msg(2).push_id(ctx.id()));
      // Relay the heard IDs onward in batches of up to 4 per message.
      for (std::size_t i = 0; i < heard.size() && budget > 0; --budget) {
        auto m = make_msg(7).push_id(heard[i++]);
        for (std::size_t k = 1; k < 4 && i < heard.size(); ++k)
          m.push_id(heard[i++]);
        ctx.send(succ, m);
      }
    });
  }
  fp.net = testing::net_fingerprint(net);
  return fp;
}

// Light successor ring that never oversubscribes anyone: legal under the
// strict overflow policy, and its transcript must match the bounce-policy
// run exactly (a policy that never fires is unobservable).
RunFingerprint run_ring(unsigned threads, ncc::OverflowPolicy policy) {
  constexpr std::size_t kN = 128;
  ncc::Config cfg;
  cfg.seed = 31;
  cfg.threads = threads;
  cfg.overflow = policy;
  ncc::Network net(kN, cfg);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  for (int r = 0; r < 10; ++r) {
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view()) in = hash_mix(in, m.src(), m.word(0));
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ)
        ctx.send(succ, make_msg(1).push_id(ctx.id()).push(r));
    });
  }
  fp.net = testing::net_fingerprint(net);
  return fp;
}

TEST(ParallelDeliver, FloodOverflowTranscriptInvariant) {
  for (const Flood shape :
       {Flood::kHotSet4, Flood::kUniform, Flood::kSparse, Flood::kHot8}) {
    const int k = static_cast<int>(shape);
    const RunFingerprint ref = run_flood(1, /*traced=*/false, shape);
    // Sanity: the flooding shapes really oversubscribe (parallel pre-draw
    // ran); one send per node never does.
    if (shape == Flood::kSparse) {
      EXPECT_EQ(ref.stats().messages_bounced, 0u);
    } else {
      EXPECT_GT(ref.stats().messages_bounced, 0u) << "shape=" << k;
    }
    for (const unsigned threads : {2u, 4u, 8u}) {
      EXPECT_TRUE(ref == run_flood(threads, false, shape))
          << "shape=" << k << " threads=" << threads;
    }
    // Traced runs place through the same path; same story.
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_TRUE(ref == run_flood(threads, true, shape))
          << "shape=" << k << " traced threads=" << threads;
    }
  }
}

TEST(ParallelDeliver, SkewedFanInTranscriptInvariant) {
  const RunFingerprint ref = run_skewed_fan_in(1, /*traced=*/false);
  EXPECT_GT(ref.stats().messages_bounced, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_TRUE(ref == run_skewed_fan_in(threads, false))
        << "threads=" << threads;
  }
  EXPECT_TRUE(ref == run_skewed_fan_in(8, true)) << "traced";
}

TEST(ParallelDeliver, GossipWaveLearnPassInvariant) {
  const RunFingerprint ref = run_gossip_relay(1, /*sparse=*/true, false);
  // Sanity: knowledge actually spread beyond the initial path hints, so
  // the (parallel) learn pass did real work.
  std::size_t total_known = 0;
  for (const std::size_t k : ref.net.knowledge) total_known += k;
  EXPECT_GT(total_known, 3 * 256u);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const bool sparse : {true, false}) {
      EXPECT_TRUE(ref == run_gossip_relay(threads, sparse, false))
          << "threads=" << threads << " sparse=" << sparse;
    }
  }
  EXPECT_TRUE(ref == run_gossip_relay(4, true, true)) << "traced sparse";
  EXPECT_TRUE(ref == run_gossip_relay(4, false, true)) << "traced dense";
}

TEST(ParallelDeliver, StrictPolicyTranscriptMatchesBounceAcrossThreads) {
  const RunFingerprint ref = run_ring(1, ncc::OverflowPolicy::kBounce);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(ref == run_ring(threads, ncc::OverflowPolicy::kStrict))
        << "strict threads=" << threads;
    EXPECT_TRUE(ref == run_ring(threads, ncc::OverflowPolicy::kBounce))
        << "bounce threads=" << threads;
  }
}

// ---- Delivery block edges -----------------------------------------------
// A block-parallel round splits the destinations into one fixed slot range
// per worker, ceil(n / threads) slots wide. These shapes aim at the block
// edges: a node count no thread count divides, traffic that lands in one
// block (with a hot destination over capacity) or skips the middle blocks,
// a lossy and crashed network whose serial drop pass feeds the per-block
// count, and sparse rounds whose few active senders run their bodies on the
// calling thread while their traffic is large enough to deliver in blocks.
enum class Edge { kUneven, kOneBlockHot, kEmptyMiddle, kLossyCrashed,
                  kSparseSerialBody };

struct EdgeRun {
  RunFingerprint fp;
  std::uint64_t trace_digest = 0;
  std::size_t trace_events = 0;
};

EdgeRun run_edge(Edge shape, unsigned threads, bool traced) {
  constexpr std::size_t kN = 1001;  // divisible by none of 2, 3, 4, 8
  constexpr std::size_t kRounds = 6;
  ncc::Config cfg;
  cfg.seed = 1001;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  if (shape == Edge::kLossyCrashed) cfg.drop_probability = 0.15;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);
  if (shape == Edge::kLossyCrashed) {
    for (Slot s = 3; s < kN; s += 7) net.crash(s);
  }

  EdgeRun out;
  RunFingerprint& fp = out.fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  const int cap = net.capacity();
  auto body = [&](Ctx& ctx) {
    auto& in = fp.inbox_digest[ctx.slot()];
    for (const auto m : ctx.inbox_view()) in = hash_mix(in, m.src(), m.word(0));
    auto& bo = fp.bounce_digest[ctx.slot()];
    for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.word(0));
    for (int i = 0; i < cap / 2; ++i) {
      std::size_t pick = 0;
      switch (shape) {
        case Edge::kUneven:
        case Edge::kLossyCrashed:
        case Edge::kSparseSerialBody:
          pick = ctx.rng().below(kN);
          break;
        case Edge::kOneBlockHot:  // [0, 100) sits in block 0 at any width
          pick = ctx.rng().chance(0.3) ? 5 : ctx.rng().below(100);
          break;
        case Edge::kEmptyMiddle:  // the first and last 60 slots only
          pick = ctx.rng().below(120);
          if (pick >= 60) pick += kN - 120;
          break;
      }
      // Blocks are slot ranges, so the shapes pick destination slots.
      ctx.send(net.ref_of(static_cast<Slot>(pick)),
               make_msg(9).push(ctx.rng().below(1u << 20)));
    }
  };
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (shape == Edge::kSparseSerialBody) {
      // 300 active senders (under the 2048-slot grain, so the body runs on
      // the calling thread) send 300 * cap/2 three-word records, far past
      // the 2048-word delivery grain.
      net.clear_active();
      for (Slot s = static_cast<Slot>(r % 3); s < 900; s += 3) net.wake(s);
      net.round_active(body);
    } else {
      net.round(body);
    }
  }
  fp.net = testing::net_fingerprint(net);
  for (const auto& e : trace.events()) {
    out.trace_digest = hash_mix(out.trace_digest, e.round,
                                hash_mix(e.src, e.dst, e.tag));
    out.trace_digest = hash_mix(out.trace_digest,
                                static_cast<std::uint64_t>(e.outcome));
  }
  out.trace_events = trace.events().size();
  return out;
}

TEST(ParallelDeliver, BlockEdgesTranscriptInvariant) {
  for (const Edge shape : {Edge::kUneven, Edge::kOneBlockHot,
                           Edge::kEmptyMiddle, Edge::kLossyCrashed,
                           Edge::kSparseSerialBody}) {
    const int k = static_cast<int>(shape);
    const EdgeRun ref = run_edge(shape, 1, /*traced=*/false);
    const EdgeRun ref_traced = run_edge(shape, 1, /*traced=*/true);
    EXPECT_TRUE(ref.fp == ref_traced.fp) << "shape=" << k;
    // Every round carries far more than the 2048-word delivery grain.
    EXPECT_GT(ref.fp.stats().messages_sent, 6u * 2048u) << "shape=" << k;
    if (shape == Edge::kOneBlockHot) {
      EXPECT_GT(ref.fp.stats().messages_bounced, 0u);
    }
    if (shape == Edge::kLossyCrashed) {
      EXPECT_GT(ref.fp.stats().messages_dropped, 0u);
    }
    for (const unsigned threads : {2u, 3u, 4u, 8u}) {
      EXPECT_TRUE(ref.fp == run_edge(shape, threads, false).fp)
          << "shape=" << k << " threads=" << threads;
      const EdgeRun traced = run_edge(shape, threads, true);
      EXPECT_TRUE(ref.fp == traced.fp)
          << "shape=" << k << " traced threads=" << threads;
      EXPECT_EQ(ref_traced.trace_digest, traced.trace_digest)
          << "shape=" << k << " threads=" << threads;
      EXPECT_EQ(ref_traced.trace_events, traced.trace_events)
          << "shape=" << k << " threads=" << threads;
    }
  }
}

// One-block fan-in on NCC0: the first 600 slots relay to their path
// successors (shuffle off, so every receiver sits in block 0 at any width)
// a full capacity of records carrying their own ID plus the IDs they heard
// last round. Block 0 holds all of each round's inbox words, past the
// skewed-block threshold (2^18 words) from the second round on, so its
// learn pass is spread over every worker in equal-word chunks; the
// knowledge counts must match the serial pass.
RunFingerprint run_one_block_learn(unsigned threads, bool traced) {
  constexpr std::size_t kN = 5003;  // block 0 is 626 slots at threads = 8
  ncc::Config cfg;
  cfg.seed = 77;
  cfg.threads = threads;
  cfg.shuffle_path = false;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  for (int r = 0; r < 8; ++r) {
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      std::vector<NodeId> heard;
      for (const auto m : ctx.inbox_view()) {
        in = hash_mix(in, m.src(), m.tag());
        for (std::size_t w = 0; w < m.size(); ++w) {
          if (m.id_mask() & (1u << w)) heard.push_back(m.word(w));
        }
      }
      const ncc::NodeRef succ = ctx.initial_successor();
      if (ctx.slot() >= 600 || !succ) return;
      for (int i = 0; i < ctx.capacity(); ++i) {
        auto m = make_msg(4).push_id(ctx.id());
        const auto at = 3 * static_cast<std::size_t>(i);
        for (std::size_t k = 0; k < 3 && !heard.empty(); ++k)
          m.push_id(heard[(at + k) % heard.size()]);
        ctx.send(succ, m);
      }
    });
  }
  fp.net = testing::net_fingerprint(net);
  return fp;
}

TEST(ParallelDeliver, OneBlockFanInLearnSpreadInvariant) {
  const RunFingerprint ref = run_one_block_learn(1, /*traced=*/false);
  // Knowledge travelled down the relaying prefix of the path.
  EXPECT_GT(ref.net.knowledge[599], ref.net.knowledge[2000]);
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    EXPECT_TRUE(ref == run_one_block_learn(threads, false))
        << "threads=" << threads;
    EXPECT_TRUE(ref == run_one_block_learn(threads, true))
        << "traced threads=" << threads;
  }
}

// ---- Per-phase timing ---------------------------------------------------

TEST(PhaseTiming, PopulatedWhenOnAndZeroWhenDetached) {
  constexpr std::size_t kN = 512;
  ncc::Config cfg;
  cfg.seed = 814;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = 2;
  for (const bool timing : {false, true}) {
    ncc::Network net(kN, cfg);
    net.set_phase_timing(timing);
    const int sends = net.capacity() / 2;
    for (int r = 0; r < 4; ++r) {
      net.round([&](Ctx& ctx) {
        const auto ids = ctx.all_ids();
        for (int i = 0; i < sends; ++i) {
          const std::size_t pick = ctx.rng().chance(0.25)
                                       ? ctx.rng().below(4)
                                       : ctx.rng().below(ids.size());
          ctx.send(ids[pick], ncc::make_msg(5).push(i));
        }
      });
    }
    const ncc::PhaseNanos& ph = net.stats().phase_ns;
    if (!timing) {
      // Detached rounds read no clocks: every accumulator stays zero.
      EXPECT_EQ(ph.total(), 0u);
    } else {
      EXPECT_GT(ph.body, 0u);
      EXPECT_GT(ph.sort, 0u);
      EXPECT_GT(ph.placement, 0u);
      EXPECT_GT(ph.rng, 0u);  // the hot set oversubscribes every round
      EXPECT_EQ(ph.learn, 0u);  // clique: the learn pass is skipped
    }
  }
}

TEST(PhaseTiming, LearnPhaseMeasuredOnNcc0AndSampleCarriesPhases) {
  struct Collector final : ncc::TelemetrySink {
    ncc::PhaseNanos sum;
    void on_round(const ncc::RoundSample& s) override {
      sum.body += s.phase_ns.body;
      sum.sort += s.phase_ns.sort;
      sum.rng += s.phase_ns.rng;
      sum.placement += s.phase_ns.placement;
      sum.learn += s.phase_ns.learn;
    }
  } sink;
  constexpr std::size_t kN = 128;
  ncc::Config cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  ncc::Network net(kN, cfg);
  // A telemetry sink alone turns timing on — no set_phase_timing needed.
  net.set_telemetry(&sink);
  for (int r = 0; r < 6; ++r) {
    net.round([&](Ctx& ctx) {
      for (const auto m : ctx.inbox_view()) (void)m;
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ)
        ctx.send(succ, make_msg(2).push_id(ctx.id()));
    });
  }
  EXPECT_GT(sink.sum.body, 0u);
  EXPECT_GT(sink.sum.sort, 0u);
  EXPECT_GT(sink.sum.placement, 0u);
  EXPECT_GT(sink.sum.learn, 0u);  // NCC0: trailered records teach IDs
  // The sink's per-round deltas are exactly the engine's accumulator.
  const ncc::PhaseNanos& ph = net.stats().phase_ns;
  EXPECT_EQ(sink.sum.body, ph.body);
  EXPECT_EQ(sink.sum.learn, ph.learn);
  EXPECT_EQ(sink.sum.total(), ph.total());
}

}  // namespace
}  // namespace dgr
