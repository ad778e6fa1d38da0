// Determinism guarantees of the round-engine datapath.
//
// The engine promises bit-for-bit reproducible transcripts: for a fixed
// seed, the delivered/bounced/dropped outcome of every message is identical
// regardless of the worker thread count, and the oversubscription path
// accepts a uniformly random capacity-sized subset drawn from the per-round
// delivery stream in a fixed, documented order. These tests pin both
// properties so engine rewrites cannot silently change the transcript.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "ncc/trace.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::NodeId;
using ncc::Slot;

using testing::RunFingerprint;

// A seeded lossy + crashy workload: clique knowledge, every node floods a
// random half of its budget (some destinations oversubscribe, so the bounce
// path runs), links drop 20% of traffic, and the referee crashes a few nodes
// mid-run. Exercises every branch of deliver(). With `traced` set a Trace is
// attached; recording events must not change any outcome.
RunFingerprint run_lossy_crashy(unsigned threads, bool traced = false) {
  constexpr std::size_t kN = 160;
  ncc::Config cfg;
  cfg.seed = 2024;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  cfg.drop_probability = 0.2;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);

  for (int r = 0; r < 25; ++r) {
    // Referee-side crash schedule (between rounds, like the §8 experiments).
    if (r == 5) net.crash(3);
    if (r == 5) net.crash(70);
    if (r == 12) net.crash(141);
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view())
        in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);

      const auto ids = ctx.all_ids();
      const int sends = ctx.capacity() / 2;
      for (int i = 0; i < sends; ++i) {
        // Mostly uniform traffic, with a quarter aimed at a 4-node hot set
        // so some destinations reliably oversubscribe and bounce.
        const std::size_t pick = ctx.rng().chance(0.25)
                                     ? ctx.rng().below(4)
                                     : ctx.rng().below(ids.size());
        ctx.send(ids[pick], make_msg(5).push(ctx.rng().below(1u << 20)));
      }
    });
  }

  fp.net = testing::net_fingerprint(net);
  return fp;
}

TEST(EngineDeterminism, LossyCrashyTranscriptInvariantAcrossThreadCounts) {
  const RunFingerprint serial = run_lossy_crashy(1);
  EXPECT_TRUE(serial == run_lossy_crashy(2));
  EXPECT_TRUE(serial == run_lossy_crashy(8));

  // Attaching a trace must not change the observable transcript.
  EXPECT_TRUE(serial == run_lossy_crashy(1, /*traced=*/true));
  EXPECT_TRUE(serial == run_lossy_crashy(8, /*traced=*/true));

  // Sanity: the workload really exercised every delivery branch.
  EXPECT_GT(serial.stats().messages_dropped, 0u);
  EXPECT_GT(serial.stats().messages_bounced, 0u);
  EXPECT_GT(serial.stats().messages_delivered, 0u);
}

// The oversubscription path must accept exactly the subset selected by a
// partial Fisher-Yates over arrival order, driven by the per-round delivery
// stream Rng(hash_mix(seed, 0xDE11FE12, round)) — the contract the engine
// has had since the seed. Reimplement the draw here and check the engine's
// trace against it message by message.
TEST(EngineDeterminism, OverflowBouncesExactReferenceSubset) {
  constexpr std::size_t kN = 64;
  constexpr std::uint64_t kSeed = 97;
  ncc::Config cfg;
  cfg.seed = kSeed;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  const auto cap = static_cast<std::size_t>(net.capacity());

  ncc::Trace trace;
  net.set_trace(&trace);
  const NodeId target = net.id_of(0);
  // Slots 1..63 each send one message to slot 0: 63 arrivals, capacity 24.
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) ctx.send(target, make_msg(1));
  });
  net.set_trace(nullptr);

  const std::size_t arrivals = kN - 1;
  ASSERT_GT(arrivals, cap);

  // Reference draw. Arrival order is source-slot order (1, 2, ..., 63); no
  // link loss is configured, so the round's delivery stream is consumed only
  // by the subset selection.
  Rng reference(hash_mix(kSeed, 0xDE11FE12ULL, 0));
  std::vector<std::size_t> idx(arrivals);
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = 0; i < cap; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(reference.below(idx.size() - i));
    std::swap(idx[i], idx[j]);
  }
  std::vector<bool> accepted(arrivals, false);
  for (std::size_t i = 0; i < cap; ++i) accepted[idx[i]] = true;

  ASSERT_EQ(trace.events().size(), arrivals);
  std::size_t delivered = 0;
  for (const auto& e : trace.events()) {
    ASSERT_GE(e.src, 1u);
    const bool expect_deliver = accepted[e.src - 1];
    EXPECT_EQ(e.outcome, expect_deliver ? ncc::MessageOutcome::kDelivered
                                        : ncc::MessageOutcome::kBounced)
        << "message from slot " << e.src;
    delivered += (e.outcome == ncc::MessageOutcome::kDelivered);
  }
  EXPECT_EQ(delivered, cap);
  EXPECT_EQ(net.stats().messages_bounced, arrivals - cap);
}

// Strict mode: exactly-capacity fan-in is legal, one more message throws.
TEST(EngineDeterminism, StrictModeBoundaryExactCapacity) {
  ncc::Config cfg;
  cfg.seed = 31;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.overflow = ncc::OverflowPolicy::kStrict;

  {
    ncc::Network net(128, cfg);
    const auto cap = static_cast<std::size_t>(net.capacity());
    const NodeId target = net.id_of(0);
    net.round([&](Ctx& ctx) {
      if (ctx.slot() >= 1 && ctx.slot() <= cap) ctx.send(target, make_msg(1));
    });
    std::size_t seen = 0;
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) seen = ctx.inbox_view().size();
    });
    EXPECT_EQ(seen, cap);
  }
  {
    ncc::Network net(128, cfg);
    const auto cap = static_cast<std::size_t>(net.capacity());
    const NodeId target = net.id_of(0);
    EXPECT_THROW(
        {
          net.round([&](Ctx& ctx) {
            if (ctx.slot() >= 1 && ctx.slot() <= cap + 1)
              ctx.send(target, make_msg(1));
          });
          net.round([](Ctx&) {});
        },
        CheckError);
  }
}

// A body may catch a send's CheckError and carry on (check.h documents the
// throw for exactly that); the rejected message must leave no trace — not in
// the outbox stream, not in the stats, and never in another node's inbox.
TEST(EngineDeterminism, CaughtFailedSendLeavesNoTrace) {
  ncc::Config cfg;
  cfg.seed = 55;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(8, cfg);
  const auto cap = net.capacity();
  const NodeId hot = net.id_of(1);
  const NodeId quiet = net.id_of(2);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 5) {
      for (int i = 0; i < cap; ++i) ctx.send(hot, make_msg(99).push(1));
      EXPECT_THROW(ctx.send(hot, make_msg(99).push(1)), CheckError);
    }
    if (ctx.slot() == 0) ctx.send(quiet, make_msg(7).push(42));
  });
  std::size_t quiet_seen = 0;
  std::size_t hot_seen = 0;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 2) {
      quiet_seen = ctx.inbox_view().size();
      ASSERT_EQ(quiet_seen, 1u);
      const auto m = *ctx.inbox_view().begin();
      EXPECT_EQ(m.tag(), 7u);
      EXPECT_EQ(m.src(), net.id_of(0));
    }
    if (ctx.slot() == 1) hot_seen = ctx.inbox_view().size();
  });
  EXPECT_EQ(quiet_seen, 1u);
  EXPECT_EQ(hot_seen, static_cast<std::size_t>(cap));
  EXPECT_EQ(net.stats().messages_sent, static_cast<std::uint64_t>(cap) + 1);
}

// Same property for the forwarded-ID (KT0 referee-leakage) check, which
// rejects on the second validation branch.
TEST(EngineDeterminism, CaughtUnknownForwardLeavesNoTrace) {
  auto net = testing::make_ncc0(10, 21);
  const auto& order = net.path_order();
  const Slot head = order.front();
  const NodeId succ = net.id_of(order[1]);
  const NodeId stranger = net.id_of(order.back());
  ASSERT_FALSE(net.node_knows(head, stranger));
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != head) return;
    EXPECT_THROW(ctx.send(succ, make_msg(1).push_id(stranger)), CheckError);
    ctx.send(succ, make_msg(2).push(11));
  });
  std::size_t seen = 0;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != order[1]) return;
    seen = ctx.inbox_view().size();
    ASSERT_EQ(seen, 1u);
    EXPECT_EQ((*ctx.inbox_view().begin()).tag(), 2u);
  });
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(net.stats().messages_sent, 1u);
}

// NCC1 semantics: common knowledge covers every ID, so a clique node may
// forward an arbitrary handle as an ID word without the engine resolving it
// against the node table (the word may be an application-level value). On
// NCC0 the same send is a KT0 violation (CaughtUnknownForwardLeavesNoTrace
// above); this pins the clique side so datapath rewrites cannot silently
// tighten it.
TEST(EngineDeterminism, CliqueForwardsUnresolvedIdWords) {
  auto net = testing::make_ncc1(4, 44);
  const NodeId handle = 0xDEADBEEFULL;  // no node has this ID
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0) ctx.send(net.id_of(1), make_msg(6).push_id(handle));
  });
  std::uint64_t seen = 0;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 1 && !ctx.inbox_view().empty())
      seen = (*ctx.inbox_view().begin()).id_word(0);
  });
  EXPECT_EQ(seen, handle);
}

// A hand-corrupted Message::size (bypassing push()'s guard) must be rejected
// before the wire encoder touches it, not read out of bounds.
TEST(EngineDeterminism, CorruptMessageSizeRejected) {
  auto net = testing::make_ncc1(4, 33);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) return;
    ncc::Message m = make_msg(3);
    m.size = 9;  // > kMaxWords; only possible by direct field writes
    EXPECT_THROW(ctx.send(net.id_of(1), m), CheckError);
  });
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

// Same input class for id_mask: a bit at or above size (only possible by
// direct field writes — push_id can't produce it) would make the trailer
// sizing disagree with the trailer fill and ship an uninitialized trailer
// word into the delivery learn pass. Must be rejected before encoding, on
// learning and clique networks alike.
TEST(EngineDeterminism, CorruptIdMaskBeyondSizeRejected) {
  auto net0 = testing::make_ncc0(4, 34);
  const Slot head = net0.path_order().front();
  const NodeId succ = net0.id_of(net0.path_order()[1]);
  net0.round([&](Ctx& ctx) {
    if (ctx.slot() != head) return;
    ncc::Message m = make_msg(3).push(7);  // size 1
    m.id_mask = 0b10;  // flags words[1], which is not part of the payload
    EXPECT_THROW(ctx.send(succ, m), CheckError);
  });
  EXPECT_EQ(net0.stats().messages_sent, 0u);

  auto net1 = testing::make_ncc1(4, 35);
  net1.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) return;
    ncc::Message m = make_msg(3);  // size 0
    m.id_mask = 0b1;
    EXPECT_THROW(ctx.send(net1.id_of(1), m), CheckError);
  });
  EXPECT_EQ(net1.stats().messages_sent, 0u);
}

// Active-set scheduling: a frontier-driven workload — seeded by a referee
// wake, spread by receipt, sustained by self-wakes and bounce retries, with
// link loss and mid-run crashes — must produce a bit-for-bit identical
// transcript for any thread count, for the dense-dispatch fallback
// (Config::sparse_rounds = false), and under a trace attachment. The body
// honours the inactive-silence contract: a slot acts only on evidence in
// its own state (inbox, bounces, its remembered self-wake, being the
// seeded starter), so dense dispatch runs it as a no-op everywhere else.
RunFingerprint run_active_wave(unsigned threads, bool sparse,
                               bool traced = false) {
  constexpr std::size_t kN = 160;
  ncc::Config cfg;
  cfg.seed = 4040;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  cfg.sparse_rounds = sparse;
  cfg.drop_probability = 0.1;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);

  std::vector<std::uint8_t> woke(kN, 0);
  net.wake(7);  // referee seed: slot 7 starts the wave
  for (int r = 0; r < 25; ++r) {
    if (r == 6) net.crash(31);
    if (r == 14) net.crash(8);
    net.round_active([&](Ctx& ctx) {
      const Slot s = ctx.slot();
      auto& in = fp.inbox_digest[s];
      for (const auto m : ctx.inbox_view())
        in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[s];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      const bool started = r == 0 && s == 7;
      if (!started && ctx.inbox_view().empty() && ctx.bounced().empty() &&
          !woke[s]) {
        return;  // inactive-silent: no sends, no RNG, no state change
      }
      woke[s] = 0;
      const auto ids = ctx.all_ids();
      const int fan = 2 + static_cast<int>(ctx.rng().below(6));
      for (int i = 0; i < fan; ++i) {
        // Half the traffic hits a 2-slot hot set so receivers oversubscribe
        // and the bounce path keeps feeding the frontier.
        const std::size_t pick = ctx.rng().chance(0.5)
                                     ? ctx.rng().below(2)
                                     : ctx.rng().below(ids.size());
        ctx.send(ids[pick], make_msg(9).push(ctx.rng().below(1u << 16)));
      }
      if (ctx.rng().chance(0.2)) {
        ctx.wake();
        woke[s] = 1;  // node-local memory of the self-wake
      }
    });
  }

  fp.net = testing::net_fingerprint(net);
  return fp;
}

TEST(EngineDeterminism, ActiveWaveTranscriptInvariantAcrossSchedulers) {
  const RunFingerprint ref = run_active_wave(1, /*sparse=*/true);
  // Any thread count, sparse.
  EXPECT_TRUE(ref == run_active_wave(2, true));
  EXPECT_TRUE(ref == run_active_wave(8, true));
  // Dense-dispatch fallback, any thread count.
  EXPECT_TRUE(ref == run_active_wave(1, false));
  EXPECT_TRUE(ref == run_active_wave(8, false));
  // A trace attached on top of sparse scheduling.
  EXPECT_TRUE(ref == run_active_wave(1, true, /*traced=*/true));
  EXPECT_TRUE(ref == run_active_wave(8, true, /*traced=*/true));

  // The wave genuinely exercised every delivery branch.
  EXPECT_GT(ref.stats().messages_dropped, 0u);
  EXPECT_GT(ref.stats().messages_bounced, 0u);
  EXPECT_GT(ref.stats().messages_delivered, 0u);
}

// deliver() switches between list-driven and O(n) sweep bookkeeping when a
// round's touched-destination count crosses n/16 (kDenseSweep). A workload
// that oscillates between all-dense floods and single-sender trickles
// crosses that boundary in both directions, every other round. The choice
// is bookkeeping strategy only: transcripts must stay bit-identical across
// thread counts, a trace attachment, and a lossy variant (which runs the
// drop draws in the same counting pass).
RunFingerprint run_density_oscillation(unsigned threads, bool traced,
                                       double drop) {
  constexpr std::size_t kN = 192;
  ncc::Config cfg;
  cfg.seed = 6060;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  cfg.drop_probability = drop;
  ncc::Network net(kN, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);

  for (int r = 0; r < 24; ++r) {
    net.round([&](Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view()) in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced()) bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      const auto ids = ctx.all_ids();
      // 4-round cycle: two flood rounds (dense), two trickle rounds where
      // only slot 0 sends one message (sparse).
      if (r % 4 < 2) {
        const int sends = ctx.capacity() / 2;
        for (int i = 0; i < sends; ++i) {
          const std::size_t pick = ctx.rng().chance(0.2)
                                       ? ctx.rng().below(3)
                                       : ctx.rng().below(ids.size());
          ctx.send(ids[pick], make_msg(11).push(ctx.rng().below(1u << 18)));
        }
      } else if (ctx.slot() == 0) {
        ctx.send(ids[ctx.rng().below(ids.size())], make_msg(12).push(r));
      }
    });
  }

  fp.net = testing::net_fingerprint(net);
  return fp;
}

TEST(EngineDeterminism, DensityOscillationTranscriptInvariant) {
  const RunFingerprint ref = run_density_oscillation(1, false, 0.0);
  EXPECT_TRUE(ref == run_density_oscillation(4, false, 0.0));
  EXPECT_TRUE(ref == run_density_oscillation(8, false, 0.0));
  // A trace attached while the sweep mode keeps flipping.
  EXPECT_TRUE(ref == run_density_oscillation(1, true, 0.0));
  // The flood rounds genuinely oversubscribed the hot set.
  EXPECT_GT(ref.stats().messages_bounced, 0u);

  const RunFingerprint lossy = run_density_oscillation(1, false, 0.15);
  EXPECT_TRUE(lossy == run_density_oscillation(8, false, 0.15));
  EXPECT_TRUE(lossy == run_density_oscillation(8, true, 0.15));
  EXPECT_GT(lossy.stats().messages_dropped, 0u);
}

// NCC0 learning gossip, so records carry ID-slot trailers and the learn
// pass runs: every node hands its path successor its own ID (send1_id),
// forwards one or two IDs it has heard to a random known node (a trailered
// send), and pings the smallest ID it knows (send1) — a hot set that
// oversubscribes once the gossip has spread it. `heard` is node-local
// state: only IDs delivered to the node, all of them KT0-legal to use.
RunFingerprint run_ncc0_learning() {
  constexpr std::size_t kN = 96;
  ncc::Config cfg;
  cfg.seed = 4242;
  cfg.capacity_factor = 1;  // capacity 7: the hot set overflows early
  ncc::Network net(kN, cfg);

  RunFingerprint fp;
  fp.inbox_digest.assign(kN, 0);
  fp.bounce_digest.assign(kN, 0);
  std::vector<std::vector<NodeId>> heard(kN);

  for (int r = 0; r < 16; ++r) {
    net.round([&](Ctx& ctx) {
      auto& known = heard[ctx.slot()];
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view()) {
        in = hash_mix(in, m.src(), m.tag());
        known.push_back(m.src());
        for (std::size_t w = 0; w < m.size(); ++w) {
          in = hash_mix(in, m.word(w));
          if (m.id_mask() & (1u << w)) known.push_back(m.id_word(w));
        }
      }
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced())
        bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.words[0]);

      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(succ, ncc::make_msg(1).push_id(ctx.id()));
      if (known.empty()) return;
      auto pick = [&] { return known[ctx.rng().below(known.size())]; };
      auto m = make_msg(2).push_id(pick()).push(r);
      if (ctx.rng().chance(0.5)) m.push_id(pick());
      ctx.send(pick(), m);
      ctx.send(*std::min_element(known.begin(), known.end()), ncc::make_msg(3).push(r));
    });
  }

  fp.net = testing::net_fingerprint(net);
  return fp;
}

// Cross-commit pins. Every other suite here compares two configurations of
// one build, so a change that altered the transcript identically in every
// configuration would pass them all; these fixed-seed digests catch it. A
// change that moves one of them changes the transcript and must say so.
TEST(EngineDeterminism, GoldenTranscriptDigests) {
  EXPECT_EQ(testing::digest(run_density_oscillation(1, false, 0.0)),
            0xA2745FA5DDA9D6CAULL);
  EXPECT_EQ(testing::digest(run_density_oscillation(1, false, 0.15)),
            0x0773C8B0A22BBAFDULL);
  // Every deliver() branch (bounce, loss, crash, dense/sparse sweeps) must
  // produce the same transcript at any thread count, under either
  // scheduler, traced or not.
  for (const unsigned threads : {1u, 4u, 8u}) {
    for (const bool sparse : {true, false}) {
      for (const bool traced : {false, true}) {
        const RunFingerprint fp =
            testing::run_crash_loss_overflow(160, threads, sparse, traced);
        EXPECT_EQ(testing::digest(fp), 0xA0C0C2F040AE049FULL)
            << "threads=" << threads << " sparse=" << sparse
            << " traced=" << traced;
        EXPECT_GT(fp.stats().messages_bounced, 0u);
        EXPECT_GT(fp.stats().messages_dropped, 0u);
      }
    }
  }
  const RunFingerprint learning = run_ncc0_learning();
  EXPECT_EQ(testing::digest(learning), 0x481798E40285B26DULL);
  // The learning run really bounced trailered traffic and spread knowledge.
  EXPECT_GT(learning.stats().messages_bounced, 0u);
  EXPECT_GT(*std::max_element(learning.net.knowledge.begin(),
                              learning.net.knowledge.end()),
            std::size_t{8});
}

// The NCC0 phase loop end to end: Algorithm 3 on a small power-law input
// (hub degrees, so many phases each re-sort the path) followed by
// make_explicit, folded into one value — rounds, messages, per-scope rounds,
// total knowledge, and every stored edge list. The sort and learn datapaths
// are what this run spends most of its rounds in; a change to either that
// moves a single message moves this digest.
std::uint64_t ncc0_phase_loop_digest() {
  constexpr std::size_t kN = 512;
  Rng law(0x9041a3);
  auto degree = graph::powerlaw_sequence(kN, 64, 2.0, law);
  Rng perm(77);
  perm.shuffle(degree);
  ncc::Config cfg;
  cfg.seed = 4242;
  ncc::Network net(kN, cfg);
  const auto imp = realize::realize_degrees_implicit(net, degree);
  EXPECT_TRUE(imp.realizable);
  EXPECT_GT(imp.phases, 16u);  // many phases, each a full re-sort
  const auto exp = realize::make_explicit(net, imp);
  EXPECT_TRUE(exp.realizable);
  const ncc::NetStats& st = net.stats();
  std::uint64_t h = hash_mix(st.rounds, st.messages_sent,
                             st.messages_delivered);
  h = hash_mix(h, st.messages_bounced, net.total_knowledge());
  for (const auto& [name, rounds] : st.scope_rounds) {
    for (const char c : name) h = hash_mix(h, static_cast<unsigned char>(c));
    h = hash_mix(h, rounds);
  }
  for (const auto* lists : {&imp.stored, &exp.adjacency}) {
    for (const auto& l : *lists) {
      h = hash_mix(h, l.size(), 2);
      for (const NodeId v : l) h = hash_mix(h, v);
    }
  }
  return h;
}

TEST(EngineDeterminism, GoldenNcc0PhaseLoopDigest) {
  EXPECT_EQ(ncc0_phase_loop_digest(), 0x8D69FEA70B8B965CULL);
}

TEST(EngineDeterminism, CrashedCountIsIncrementalAndIdempotent) {
  auto net = testing::make_ncc0(50, 8);
  EXPECT_EQ(net.crashed_count(), 0u);
  net.crash(7);
  EXPECT_EQ(net.crashed_count(), 1u);
  net.crash(7);  // crashing a dead node is a no-op
  EXPECT_EQ(net.crashed_count(), 1u);
  net.crash(0);
  net.crash(49);
  EXPECT_EQ(net.crashed_count(), 3u);
  EXPECT_TRUE(net.is_crashed(7));
  EXPECT_FALSE(net.is_crashed(8));
}

}  // namespace
}  // namespace dgr
