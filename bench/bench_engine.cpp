// Raw round-engine throughput (no algorithm work): how many rounds and
// messages per second the NCC simulator core sustains.
//
// Unlike the algorithm benchmarks (which report paper-bound ratios), these
// measure pure simulator overhead — Ctx::send checks, ID->slot resolution,
// knowledge updates, and the gather/deliver pipeline — under three synthetic
// workloads:
//
//   Flood     — every node sends its full capacity() budget to uniformly
//               random targets each round. Maximum datapath pressure; a few
//               destinations oversubscribe, so the bounce path runs too.
//   FloodScan — Flood plus a receive-side scan: every node walks its inbox
//               through the zero-copy InboxView and folds tag + word 0.
//               Measures the end-to-end receive path (lazy wire-record
//               decode in place, no Message materialization).
//   Sparse    — every node sends exactly one message per round. Dominated
//               by per-round fixed costs (body dispatch, buffer resets).
//   Overflow  — every node aims half its budget at 8 hot destinations, so
//               almost everything bounces. Stresses the oversubscription
//               (random-subset selection) path and bounced() bookkeeping.
//
// Every workload builds its delivery counts with deliver()'s one header
// re-stream (Ctx::send keeps no per-send bookkeeping). Flood, FloodScan and
// Sparse touch nearly every destination, so they run the O(n) dense sweeps;
// Overflow's 8 hot destinations keep it on the sorted touched list.
//
// Counters: "messages/s" (engine-accepted sends per wall second, the headline
// number), "rounds/s", and "msgs/round". Sweeps n in {256..16384} and
// threads in {1, 4, 8}. See EXPERIMENTS.md for how these feed
// BENCH_engine.json and the perf-trajectory workflow.
#include <cstdint>

#include "bench_common.h"
#include "ncc/message.h"
#include "obs/net_metrics.h"

namespace dgr::bench {
namespace {

ncc::Config engine_cfg(unsigned threads) {
  ncc::Config cfg;
  cfg.seed = 42;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  // The throughput loop runs as many rounds as wall-time allows; the
  // livelock guard must not trip.
  cfg.max_rounds = ~std::size_t{0};
  return cfg;
}

void report_throughput(benchmark::State& state, const ncc::Network& net,
                       std::uint64_t rounds0, std::uint64_t msgs0) {
  // Thread demand is arg 1 in every engine sweep; flag oversubscribed runs.
  report_thread_occupancy(state, static_cast<unsigned>(state.range(1)));
  const auto rounds = static_cast<double>(net.stats().rounds - rounds0);
  const auto msgs = static_cast<double>(net.stats().messages_sent - msgs0);
  state.counters["rounds/s"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsRate);
  state.counters["messages/s"] =
      benchmark::Counter(msgs, benchmark::Counter::kIsRate);
  state.counters["msgs/round"] = benchmark::Counter(
      rounds > 0 ? msgs / rounds : 0, benchmark::Counter::kAvgThreads);
}

void BM_EngineFlood(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  const auto cap = static_cast<std::size_t>(net.capacity());
  // Fixed uniform-random target lists, drawn outside the timed region so the
  // measurement is engine datapath, not benchmark-side RNG.
  std::vector<ncc::NodeId> targets(n * cap);
  {
    Rng tr(99);
    for (auto& t : targets) t = net.id_of(static_cast<ncc::Slot>(tr.below(n)));
  }
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::NodeId* t = targets.data() + ctx.slot() * cap;
      for (std::size_t i = 0; i < cap; ++i) {
        ctx.send(t[i], ncc::make_msg(7).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  report_throughput(state, net, rounds0, msgs0);
}

// Flood with the observability plane attached — an obs::NetMetrics sink on
// the telemetry slot folding every round into a registry (registry
// timing gate off, as in production scraping). The A/B partner of
// BM_EngineFlood for the attached-cost claim: the pair interleaves in
// registration order, and the attached run's cost over the detached one is
// the whole per-round price of live metrics (sink virtual call + a dozen
// sharded adds + EWMA arithmetic). Detached cost is pinned separately: with
// no sink attached BM_EngineFlood itself must stay within noise of the
// pre-observability baseline (EXPERIMENTS.md records the A/B).
void BM_EngineFloodObs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  obs::Registry reg;  // private registry: keep bench reps independent
  obs::NetMetrics metrics(reg);
  net.set_telemetry(&metrics);
  const auto cap = static_cast<std::size_t>(net.capacity());
  std::vector<ncc::NodeId> targets(n * cap);
  {
    Rng tr(99);
    for (auto& t : targets) t = net.id_of(static_cast<ncc::Slot>(tr.below(n)));
  }
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::NodeId* t = targets.data() + ctx.slot() * cap;
      for (std::size_t i = 0; i < cap; ++i) {
        ctx.send(t[i], ncc::make_msg(7).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  net.set_telemetry(nullptr);
  report_throughput(state, net, rounds0, msgs0);
  state.counters["ewma_msgs/round"] = benchmark::Counter(
      static_cast<double>(metrics.delivered_per_round_ewma_x1000()) / 1000.0);
}

// Flood with per-phase round timing enabled (Network::set_phase_timing):
// the A/B partner of BM_EngineFlood for the detached-cost claim. With
// timing OFF the engine takes no timestamps at all — the pair interleaves
// in registration order, and at threads=1 the detached run must stay
// within noise (≤1%) of this timed run minus the clock reads. Also the
// per-phase counters land in --benchmark_out JSON ("body_s", "sort_s",
// ...), so the engine's phase split is visible from the GB harness too.
void BM_EngineFloodTimed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  net.set_phase_timing(true);
  const auto cap = static_cast<std::size_t>(net.capacity());
  std::vector<ncc::NodeId> targets(n * cap);
  {
    Rng tr(99);
    for (auto& t : targets) t = net.id_of(static_cast<ncc::Slot>(tr.below(n)));
  }
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::NodeId* t = targets.data() + ctx.slot() * cap;
      for (std::size_t i = 0; i < cap; ++i) {
        ctx.send(t[i], ncc::make_msg(7).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  report_throughput(state, net, rounds0, msgs0);
  const auto& ph = net.stats().phase_ns;
  constexpr double kNs = 1e-9;
  state.counters["body_s"] =
      benchmark::Counter(static_cast<double>(ph.body) * kNs);
  state.counters["sort_s"] =
      benchmark::Counter(static_cast<double>(ph.sort) * kNs);
  state.counters["rng_s"] =
      benchmark::Counter(static_cast<double>(ph.rng) * kNs);
  state.counters["placement_s"] =
      benchmark::Counter(static_cast<double>(ph.placement) * kNs);
  state.counters["learn_s"] =
      benchmark::Counter(static_cast<double>(ph.learn) * kNs);
}

// Flood addressed by NodeRef handle: identical traffic and transcript to
// BM_EngineFlood, but no NodeId -> Slot lookup per send. The pair is the
// A/B for handle addressing — see "NodeRef handles" in EXPERIMENTS.md.
void BM_EngineFloodRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  const auto cap = static_cast<std::size_t>(net.capacity());
  std::vector<ncc::NodeRef> targets(n * cap);
  {
    Rng tr(99);
    for (auto& t : targets) t = net.ref_of(static_cast<ncc::Slot>(tr.below(n)));
  }
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::NodeRef* t = targets.data() + ctx.slot() * cap;
      for (std::size_t i = 0; i < cap; ++i) {
        ctx.send(t[i], ncc::make_msg(7).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  report_throughput(state, net, rounds0, msgs0);
}

void BM_EngineFloodScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  const auto cap = static_cast<std::size_t>(net.capacity());
  std::vector<ncc::NodeId> targets(n * cap);
  {
    Rng tr(99);
    for (auto& t : targets) t = net.id_of(static_cast<ncc::Slot>(tr.below(n)));
  }
  std::vector<std::uint64_t> sink(n, 0);
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      std::uint64_t acc = 0;
      for (const auto m : ctx.inbox_view()) acc += m.tag() + m.word(0);
      sink[ctx.slot()] += acc;
      const ncc::NodeId* t = targets.data() + ctx.slot() * cap;
      for (std::size_t i = 0; i < cap; ++i) {
        ctx.send(t[i], ncc::make_msg(7).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  benchmark::DoNotOptimize(sink.data());
  report_throughput(state, net, rounds0, msgs0);
}

void BM_EngineSparse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([](ncc::Ctx& ctx) {
      const auto ids = ctx.all_ids();
      ctx.send(ids[ctx.rng().below(ids.size())], ncc::make_msg(7).push(1));
    });
  }
  report_throughput(state, net, rounds0, msgs0);
}

void BM_EngineOverflow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncc::Network net(n, engine_cfg(static_cast<unsigned>(state.range(1))));
  const auto half = static_cast<std::size_t>(net.capacity()) / 2;
  constexpr std::size_t kHot = 8;
  std::vector<ncc::NodeId> targets(n * half);
  {
    Rng tr(7);
    for (auto& t : targets)
      t = net.id_of(static_cast<ncc::Slot>(tr.below(kHot)));
  }
  const std::uint64_t rounds0 = net.stats().rounds;
  const std::uint64_t msgs0 = net.stats().messages_sent;
  for (auto _ : state) {
    net.round([&](ncc::Ctx& ctx) {
      const ncc::NodeId* t = targets.data() + ctx.slot() * half;
      for (std::size_t i = 0; i < half; ++i) {
        ctx.send(t[i], ncc::make_msg(9).push(static_cast<std::uint64_t>(i)));
      }
    });
  }
  report_throughput(state, net, rounds0, msgs0);
}

void EngineArgs(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {256, 1024, 4096, 16384}) {
    for (std::int64_t threads : {1, 4, 8}) {
      b->Args({n, threads});
    }
  }
  b->ArgNames({"n", "threads"});
}

BENCHMARK(BM_EngineFlood)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineFloodObs)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineFloodTimed)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineFloodRef)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineFloodScan)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineSparse)->Apply(EngineArgs)->UseRealTime();
BENCHMARK(BM_EngineOverflow)->Apply(EngineArgs)->UseRealTime();

}  // namespace
}  // namespace dgr::bench

BENCHMARK_MAIN();
