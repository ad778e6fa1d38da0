// TSan-targeted race stress for the shared-executor world.
//
// Everything that may legally race on the process-wide Executor does so at
// once here: two Networks (a dense hot-spot flood that overflows receivers
// — exercising the parallel placement, learn, and overflow pre-draw tails —
// and a sparse active-set wave), a RealizationService running cold
// simulations on driver threads, and a raw executor client hammering
// parallel_for. Many small rounds maximize the cross-client interleavings
// per second of test time.
//
// The assertions are the engine's whole correctness story: after the race,
// every client's transcript fingerprint must be bit-identical to a solo
// serial run. Under -DDGR_TSAN=ON this is also the dynamic-race gate CI
// runs at threads {2,4} — any unsynchronized access in the executor, the
// delivery tail, or the serve pipeline fires a TSan report even
// when the fingerprints happen to match.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "ncc/executor.h"
#include "ncc/network.h"
#include "serve/request.h"
#include "serve/service.h"
#include "testing.h"

namespace dgr {
namespace {

constexpr std::size_t kN = 96;
constexpr int kRounds = 30;
constexpr std::size_t kHot = 4;  // fan-in hot spots (forced overflow)

/// Dense hot-spot flood: every node folds its inbox, then splits its burst
/// between kHot fixed destinations (driving them far past capacity — the
/// overflow pre-draw and bounce paths stay busy) and uniformly random
/// targets. Runs with bounce overflow so rounds never throw.
testing::NetFingerprint run_flood(unsigned threads, std::uint64_t seed) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.overflow = ncc::OverflowPolicy::kBounce;
  ncc::Network net(kN, cfg);
  const auto burst = static_cast<std::size_t>(net.capacity()) - 2;
  for (int r = 0; r < kRounds; ++r) {
    net.round([&](ncc::Ctx& ctx) {
      std::uint64_t acc = 0;
      for (const auto m : ctx.inbox_view()) acc += m.word(0);
      for (const auto& b : ctx.bounced()) acc ^= b.msg.words[0];
      const auto ids = ctx.all_ids();
      for (std::size_t i = 0; i < burst; ++i) {
        const bool hot = (i & 1) == 0;
        const std::size_t pick = hot ? ctx.rng().below(kHot)
                                     : ctx.rng().below(ids.size());
        ctx.send(ids[pick], ncc::make_msg(7).push(acc + i));
      }
    });
  }
  return testing::net_fingerprint(net);
}

/// Sparse active-set wave (inactive-silent body): the other scheduler, so
/// the race also covers frontier bookkeeping and sparse dispatch.
testing::NetFingerprint run_wave(unsigned threads, std::uint64_t seed) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  net.wake(5);
  for (int r = 0; r < kRounds && net.has_active(); ++r) {
    net.round_active([&](ncc::Ctx& ctx) {
      bool token = ctx.slot() == 5 && r == 0;
      for (const auto m : ctx.inbox_view()) token |= m.tag() == 9;
      if (!token) return;
      const auto ids = ctx.all_ids();
      for (int k = 0; k < 3; ++k) {
        ctx.send(ids[ctx.rng().below(ids.size())], ncc::make_msg(9).push(ctx.rng().below(1u << 16)));
      }
    });
  }
  return testing::net_fingerprint(net);
}

/// One serve client wave: a handful of small realization requests (three
/// distinct keys, repeated — so the cache hit/coalescing paths race the
/// cold runs). Returns the number of validated answers.
std::size_t run_serve_wave() {
  serve::ServiceConfig cfg;
  cfg.drivers = 2;
  cfg.net_threads = 2;
  serve::RealizationService service(cfg);
  std::vector<std::future<serve::RealizationService::Result>> futures;
  for (int i = 0; i < 12; ++i) {
    serve::Request req;
    // A cycle's degree multiset (all 2s) is always realizable; the size
    // varies by i so three distinct cache keys are in flight at once.
    req.degrees.assign(16 + 4 * static_cast<std::size_t>(i % 3), 2);
    req.seed = 7;
    futures.push_back(service.submit(std::move(req)));
  }
  std::size_t validated = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r && r->validated && r->realizable) ++validated;
  }
  return validated;
}

TEST(RaceStress, NetworksAndServeOnSharedExecutor) {
  // Solo serial references (threads=1 never touches the executor).
  const auto ref_flood = run_flood(1, 101);
  const auto ref_wave = run_wave(1, 202);
  ASSERT_EQ(run_serve_wave(), 12u);

  for (const unsigned threads : {2u, 4u}) {
    testing::NetFingerprint flood_fp, wave_fp;
    std::size_t served = 0;
    std::uint64_t hammered = 0;

    std::thread t_flood([&] { flood_fp = run_flood(threads, 101); });
    std::thread t_wave([&] { wave_fp = run_wave(threads, 202); });
    std::thread t_serve([&] { served = run_serve_wave(); });
    std::thread t_hammer([&] {
      // A raw executor client keeps the worker pool saturated with alien
      // tasks so Network jobs always contend for claims.
      auto& exec = ncc::Executor::instance();
      const auto lease = exec.lease(threads);
      for (int rep = 0; rep < 40; ++rep) {
        std::vector<std::uint64_t> cell(64, 0);
        exec.parallel_for(lease, cell.size(),
                          [&](std::size_t i) { cell[i] = i * i; });
        for (const std::uint64_t v : cell) hammered += v;
      }
    });
    t_flood.join();
    t_wave.join();
    t_serve.join();
    t_hammer.join();

    EXPECT_TRUE(ref_flood == flood_fp)
        << "flood transcript changed under contention, threads=" << threads;
    EXPECT_TRUE(ref_wave == wave_fp)
        << "wave transcript changed under contention, threads=" << threads;
    EXPECT_EQ(served, 12u) << "serve wave lost answers, threads=" << threads;
    EXPECT_EQ(hammered, 40u * 85344u);  // 40 * sum(i^2, i<64)
  }
}

}  // namespace
}  // namespace dgr
