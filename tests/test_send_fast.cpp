// One-word sends addressed by NodeRef handle (Ctx::send(NodeRef, Message),
// Ctx::push_id): transcript equivalence with the NodeId path, learning
// semantics, the KT0 check that handles keep, and failure diagnostics.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "ncc/network.h"
#include "testing.h"
#include "util/check.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::Network;

/// Runs `rounds` rounds of `body` on a fresh net and fingerprints the end
/// state plus every delivered (tag, word, src) triple.
struct RunResult {
  testing::NetFingerprint fp;
  std::vector<std::uint64_t> seen;
  std::uint64_t id_resolutions = 0;
};

RunResult drive(std::size_t n, unsigned threads, bool clique, int rounds,
                const std::function<void(Ctx&)>& body) {
  ncc::Config cfg;
  cfg.seed = 21;
  cfg.threads = threads;
  if (clique) cfg.initial = ncc::InitialKnowledge::kClique;
  Network net(n, cfg);
  RunResult out;
  out.seen.assign(n, 0);
  for (int r = 0; r < rounds; ++r) {
    net.round([&](Ctx& ctx) {
      for (const auto m : ctx.inbox_view()) {
        out.seen[ctx.slot()] ^=
            (m.tag() * 0x9E3779B9u) + m.word(0) + m.src();
      }
      body(ctx);
    });
  }
  out.fp = testing::net_fingerprint(net);
  out.id_resolutions = net.stats().id_resolutions;
  return out;
}

std::string what_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(SendFast, Send1MatchesMessagePathTranscript) {
  for (const unsigned threads : {1u, 4u}) {
    const auto by_id = drive(64, threads, /*clique=*/false, 6, [](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ)
        ctx.send(ctx.id_of(succ), ncc::make_msg(5).push(ctx.slot() * 3 + 1));
    });
    const auto by_ref = drive(64, threads, /*clique=*/false, 6, [](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(succ, ncc::make_msg(5).push(ctx.slot() * 3 + 1));
    });
    EXPECT_TRUE(by_id.fp == by_ref.fp) << "threads=" << threads;
    EXPECT_EQ(by_id.seen, by_ref.seen) << "threads=" << threads;
    // The NodeId path looks every destination up; the handle path none.
    EXPECT_EQ(by_id.id_resolutions, by_id.fp.stats.messages_sent);
    EXPECT_EQ(by_ref.id_resolutions, 0u);
  }
}

TEST(SendFast, Send1IdMatchesPushIdPathAndLearns) {
  for (const bool clique : {false, true}) {
    const auto by_id = drive(48, 1, clique, 6, [](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (succ) ctx.send(ctx.id_of(succ), ncc::make_msg(6).push_id(ctx.id()));
    });
    const auto by_ref = drive(48, 1, clique, 6, [](Ctx& ctx) {
      const ncc::NodeRef succ = ctx.initial_successor();
      if (!succ) return;
      ncc::Message m = ncc::make_msg(6);
      ctx.send(succ, ctx.push_id(m, ctx.self()));
    });
    EXPECT_TRUE(by_id.fp == by_ref.fp) << "clique=" << clique;
    EXPECT_EQ(by_id.seen, by_ref.seen) << "clique=" << clique;
    EXPECT_EQ(by_ref.id_resolutions, 0u) << "clique=" << clique;
  }
}

TEST(SendFast, Send1IdTeachesReceiverTheId) {
  ncc::Config cfg;
  cfg.seed = 4;
  cfg.shuffle_path = false;  // slot s's successor is slot s+1
  Network net(8, cfg);
  // Slot 0 forwards its own handle to slot 1; slot 1 then knows the ID and
  // replies over the handle it received — pure KT0 mechanics, no lookups.
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) return;
    ncc::Message m = ncc::make_msg(1);
    ctx.send(ctx.initial_successor(), ctx.push_id(m, ctx.self()));
  });
  EXPECT_EQ(net.stats().id_resolutions, 0u);
  bool replied = false;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 1) return;
    for (const auto m : ctx.inbox_view()) {
      EXPECT_EQ(m.id_word(0), net.id_of(0));
      EXPECT_TRUE(m.ref_word(0) == m.src_ref());
      EXPECT_EQ(ctx.id_of(m.ref_word(0)), m.id_word(0));
      ctx.send(m.ref_word(0), ncc::make_msg(2).push(99));
      replied = true;
    }
  });
  EXPECT_TRUE(replied);
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().id_resolutions, 0u);
  EXPECT_EQ(net.known_slot_of(1, net.id_of(0)), 0u);
}

// Clique records carry no slot trailer, so MessageRef::ref_word looks the
// ID up; that lookup counts against the reading node like any other.
// Learning networks read the trailer and count nothing.
TEST(SendFast, RefWordLookupsCountedOnCliqueOnly) {
  constexpr std::size_t kN = 64;
  constexpr int kIdWords = 3;
  for (const bool clique : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      ncc::Config cfg;
      cfg.seed = 12;
      cfg.threads = threads;
      if (clique) cfg.initial = ncc::InitialKnowledge::kClique;
      Network net(kN, cfg);
      net.round([&](Ctx& ctx) {
        const ncc::NodeRef succ = ctx.initial_successor();
        if (!succ) return;
        ncc::Message m = ncc::make_msg(3);
        for (int w = 0; w < kIdWords; ++w) ctx.push_id(m, ctx.self());
        ctx.send(succ, m);
      });
      const std::uint64_t before = net.stats().id_resolutions;
      EXPECT_EQ(before, 0u);
      std::vector<std::uint64_t> reads(kN, 0);
      net.round([&](Ctx& ctx) {
        for (const auto m : ctx.inbox_view()) {
          for (int w = 0; w < kIdWords; ++w) {
            EXPECT_TRUE(m.ref_word(w) == m.src_ref());
            ++reads[ctx.slot()];
          }
        }
      });
      std::uint64_t k = 0;
      for (const std::uint64_t r : reads) k += r;
      EXPECT_EQ(k, (kN - 1) * kIdWords);
      EXPECT_EQ(net.stats().id_resolutions - before, clique ? k : 0u)
          << "clique=" << clique << " threads=" << threads;
    }
  }
}

TEST(SendFast, Send1DiagnosticsMatchSendChecks) {
  ncc::Config cfg;
  cfg.seed = 4;
  cfg.shuffle_path = false;
  Network net(8, cfg);
  // A handle does not bypass KT0: slot 0 does not know slot 5's ID, and a
  // handle to slot 5 fails exactly like the ID would.
  const std::string by_ref = what_of([&] {
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) ctx.send(net.ref_of(5), ncc::make_msg(1).push(0));
    });
  });
  const std::string by_id = what_of([&] {
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) ctx.send(net.id_of(5), ncc::make_msg(1).push(0));
    });
  });
  EXPECT_NE(by_ref.find("(KT0 violation)"), std::string::npos) << by_ref;
  EXPECT_EQ(by_ref, by_id);
  // Unknown forwarded ID, given as a handle.
  const std::string fwd = what_of([&] {
    net.round([&](Ctx& ctx) {
      if (ctx.slot() != 0) return;
      ncc::Message m = ncc::make_msg(1);
      ctx.send(ctx.initial_successor(), ctx.push_id(m, net.ref_of(6)));
    });
  });
  EXPECT_NE(fwd.find("forwards unknown ID"), std::string::npos) << fwd;
  // Null destination.
  const std::string null_dst = what_of([&] {
    net.round([&](Ctx& ctx) {
      if (ctx.slot() == 0) ctx.send(ncc::NodeRef{}, ncc::make_msg(1).push(0));
    });
  });
  EXPECT_NE(null_dst.find("send to null ID"), std::string::npos) << null_dst;
  // Capacity exhaustion, with the same diagnostic as the NodeId path.
  const std::string cap = what_of([&] {
    net.round([&](Ctx& ctx) {
      if (ctx.slot() != 0) return;
      for (int i = 0; i <= net.capacity(); ++i)
        ctx.send(ctx.initial_successor(), ncc::make_msg(1).push(i));
    });
  });
  EXPECT_NE(cap.find("send capacity exceeded"), std::string::npos) << cap;
  // A caught failure leaves no transcript trace: the next round is clean.
  net.round([](Ctx&) {});
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(SendFast, Send1IdRejectsNullIdOnCliqueLikeSend) {
  // On a clique, common knowledge covers every real ID — but the null ID is
  // rejected, whether it is pushed as a bare ID or as the null handle.
  ncc::Config cfg;
  cfg.seed = 8;
  cfg.initial = ncc::InitialKnowledge::kClique;
  Network net(8, cfg);
  const ncc::NodeId peer = net.id_of(1);
  EXPECT_THROW(net.round([&](Ctx& ctx) {
                 if (ctx.slot() == 0)
                   ctx.send(peer, ncc::make_msg(1).push_id(ncc::kNoNode));
               }),
               CheckError);
  EXPECT_THROW(net.round([&](Ctx& ctx) {
                 if (ctx.slot() != 0) return;
                 ncc::Message m = ncc::make_msg(1);
                 ctx.send(ctx.ref_of(peer), ctx.push_id(m, ncc::NodeRef{}));
               }),
               CheckError);
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(SendFast, RejectedSend1LeavesNoTrace) {
  ncc::Config cfg;
  cfg.seed = 4;
  cfg.shuffle_path = false;
  Network net(8, cfg);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) return;
    try {
      // KT0 violation, caught in-body.
      ctx.send(net.ref_of(5), ncc::make_msg(3).push(1));
    } catch (const CheckError&) {
    }
    // The only surviving send.
    ctx.send(ctx.initial_successor(), ncc::make_msg(4).push(2));
  });
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

}  // namespace
}  // namespace dgr
