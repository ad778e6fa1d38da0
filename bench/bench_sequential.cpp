// Experiment E13: substrate performance (wall-clock, not rounds) — the
// sequential baselines and the simulator itself.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "seq/connectivity_baseline.h"
#include "seq/greedy_tree.h"
#include "seq/havel_hakimi.h"
#include "util/rng.h"

namespace dgr {
namespace {

void E13_SequentialHavelHakimi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = graph::regular_sequence(n, 16);
  for (auto _ : state) {
    auto g = seq::hh_realize(d);
    benchmark::DoNotOptimize(g->m());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(E13_SequentialHavelHakimi)
    ->RangeMultiplier(4)
    ->Range(1024, 65536)
    ->Complexity();

void E13_SequentialGreedyTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto d = graph::random_tree_sequence(n, rng);
  for (auto _ : state) {
    auto t = seq::greedy_tree(d);
    benchmark::DoNotOptimize(t->m());
  }
}
BENCHMARK(E13_SequentialGreedyTree)->RangeMultiplier(4)->Range(1024, 65536);

void E13_DinicEdgeConnectivity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto d = graph::regular_sequence(n, 8);
  const auto g = seq::hh_realize(d);
  graph::EdgeConnectivity solver(*g);
  std::uint64_t q = 0;
  for (auto _ : state) {
    const auto s = static_cast<graph::Vertex>(q % n);
    const auto t = static_cast<graph::Vertex>((q * 7 + 1) % n);
    if (s != t) benchmark::DoNotOptimize(solver.query(s, t));
    ++q;
  }
}
BENCHMARK(E13_DinicEdgeConnectivity)->RangeMultiplier(4)->Range(256, 4096);

// The connectivity referee on the shape it checks: a hub-and-core graph
// (the sequential hub construction on zipf thresholds, rmax = 16), with
// the default schedule of the extremal pair plus 256 sampled pairs, each
// query capped at its threshold.
void E13_ThresholdReferee(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto rho = graph::zipf_thresholds(n, 16, 2.0, rng);
  const auto g = seq::connectivity_baseline(rho);
  for (auto _ : state) {
    Rng vrng(4);
    const auto violation = seq::find_threshold_violation(g, rho, vrng);
    if (violation) {
      state.SkipWithError("hub construction violated");
      break;
    }
    benchmark::DoNotOptimize(violation);
  }
  state.counters["m"] = static_cast<double>(g.m());
}
BENCHMARK(E13_ThresholdReferee)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void E13_SimulatorRoundThroughput(benchmark::State& state) {
  // Cost of an idle-ish synchronous round (each node pings its successor).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto net = bench::make_net(n, 3);
  for (auto _ : state) {
    net.round([](ncc::Ctx& ctx) {
      const auto s = ctx.initial_successor();
      if (s) ctx.send(s, ncc::make_msg(1));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(E13_SimulatorRoundThroughput)
    ->RangeMultiplier(4)
    ->Range(1024, 65536);

}  // namespace
}  // namespace dgr

BENCHMARK_MAIN();
