// Experiments E1–E3: the §3 primitives.
//   E1 (Thm 1 / Cor 2): BBST construction + positions in O(log n) rounds.
//   E2 (Thm 3): distributed sorting in polylog rounds (ours: O(log^2 n)).
//   E3 (Thms 4, 5): broadcast/aggregation O(log n); collection O(k+log n).
//
// Timing discipline: every benchmark uses manual timing scoped to the
// primitive under test. The fixtures (network construction, undirecting Gk,
// the BBST/skip-link overlays a primitive runs on) execute inside the
// iteration but outside the clock — E3's aggregation wave is ~20ms of work
// behind ~350ms of tree-building fixture at n = 64Ki, and wall-clocking the
// fixture would drown the subject. Committed baseline: BENCH_primitives.json
// (see EXPERIMENTS.md for before/after history and methodology).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "primitives/bbst.h"
#include "primitives/broadcast.h"
#include "primitives/collection.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void E1_BbstConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds = 0;
  int height = 0;
  bench::reset_peak_rss();
  for (auto _ : state) {
    auto net = bench::make_net(n, 42);
    prim::PathOverlay path = prim::undirect_initial_path(net);
    const std::uint64_t before = net.stats().rounds;
    const auto t0 = Clock::now();
    const prim::TreeOverlay tree = prim::build_bbst(net, path);
    state.SetIterationTime(seconds_since(t0));
    rounds += static_cast<double>(net.stats().rounds - before);
    height = tree.height;
  }
  bench::report_rounds(state, rounds, static_cast<double>(state.iterations()) *
                                          ceil_log2(n));
  bench::report_peak_rss(state);
  state.counters["height"] = static_cast<double>(height);
  state.counters["height_bound"] = static_cast<double>(ceil_log2(n) + 1);
}
BENCHMARK(E1_BbstConstruction)
    ->RangeMultiplier(4)
    ->Range(256, 1 << 20)
    ->Iterations(2)
    ->UseManualTime();

void E2_DistributedSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds = 0;
  bench::reset_peak_rss();
  for (auto _ : state) {
    auto net = bench::make_net(n, 43);
    prim::PathOverlay path = prim::undirect_initial_path(net);
    prim::build_bbst(net, path);
    const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
    Rng rng(7);
    std::vector<std::uint64_t> key(n);
    for (auto& k : key) k = rng.below(n);
    const std::uint64_t before = net.stats().rounds;
    const auto t0 = Clock::now();
    const auto sorted = prim::distributed_sort(net, path, skip, key, true);
    state.SetIterationTime(seconds_since(t0));
    benchmark::DoNotOptimize(sorted.path.order.data());
    rounds += static_cast<double>(net.stats().rounds - before);
  }
  const double lg = ceil_log2(n);
  bench::report_rounds(state, rounds,
                       static_cast<double>(state.iterations()) * lg * lg);
  bench::report_peak_rss(state);
  bench::report_thread_occupancy(state, 1);
}
BENCHMARK(E2_DistributedSort)
    ->RangeMultiplier(4)
    ->Range(256, 1 << 20)
    ->Iterations(2)
    ->UseManualTime();

// The sort as Algorithm 3's phase loop runs it: a warm network (knowledge
// already grown by a first sort) re-sorts a path that is in key order
// except for ~1% of perturbed keys, over the previous sort's skip overlay.
// The Batcher network is oblivious, so the re-sort costs the same rounds
// and messages as a cold one; what differs is the datapath state — most
// nodes keep their own record at most stages, and their knowledge is
// large. Only the re-sort is timed.
void E2_DistributedSortResort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds = 0;
  bench::reset_peak_rss();
  for (auto _ : state) {
    auto net = bench::make_net(n, 43);
    prim::PathOverlay path = prim::undirect_initial_path(net);
    prim::build_bbst(net, path);
    const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
    Rng rng(7);
    std::vector<std::uint64_t> key(n);
    for (auto& k : key) k = rng.below(n);
    const auto warm = prim::distributed_sort(net, path, skip, key, true);
    for (std::size_t i = 0; i < std::max<std::size_t>(1, n / 100); ++i)
      key[rng.below(n)] = rng.below(n);
    const std::uint64_t before = net.stats().rounds;
    const auto t0 = Clock::now();
    const auto sorted =
        prim::distributed_sort(net, warm.path, warm.skip, key, true);
    state.SetIterationTime(seconds_since(t0));
    benchmark::DoNotOptimize(sorted.path.order.data());
    rounds += static_cast<double>(net.stats().rounds - before);
  }
  const double lg = ceil_log2(n);
  bench::report_rounds(state, rounds,
                       static_cast<double>(state.iterations()) * lg * lg);
  bench::report_peak_rss(state);
  bench::report_thread_occupancy(state, 1);
}
BENCHMARK(E2_DistributedSortResort)
    ->RangeMultiplier(4)
    ->Range(256, 1 << 16)
    ->Iterations(2)
    ->UseManualTime();

// Shared by the sparse (production) and dense-reference variants below, so
// the two stay the exact same workload and only the scheduling mode can
// differ between them.
void run_e3_aggregate(benchmark::State& state, bool sparse_rounds) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double rounds = 0;
  bench::reset_peak_rss();
  for (auto _ : state) {
    auto net = bench::make_net(n, 44, sparse_rounds);
    prim::PathOverlay path = prim::undirect_initial_path(net);
    const prim::TreeOverlay tree = prim::build_bbst(net, path);
    std::vector<std::uint64_t> v(n, 1);
    const std::uint64_t before = net.stats().rounds;
    const auto t0 = Clock::now();
    const std::uint64_t total =
        prim::aggregate_and_broadcast(net, tree, v, prim::comb_sum);
    state.SetIterationTime(seconds_since(t0));
    benchmark::DoNotOptimize(total);
    rounds += static_cast<double>(net.stats().rounds - before);
  }
  bench::report_rounds(state, rounds, static_cast<double>(state.iterations()) *
                                          ceil_log2(n));
  bench::report_peak_rss(state);
}

void E3_AggregateAndBroadcast(benchmark::State& state) {
  run_e3_aggregate(state, /*sparse_rounds=*/true);
}
BENCHMARK(E3_AggregateAndBroadcast)
    ->RangeMultiplier(4)
    ->Range(256, 1 << 20)
    ->Iterations(2)
    ->UseManualTime();

// The same aggregation wave under the dense reference dispatch
// (Config::sparse_rounds = false): round_active runs every slot, which is
// the transcript-equivalence reference mode for the ActiveSetEquivalence
// suite. Benchmarked (and CI-smoked) so the dense reference path cannot
// silently rot while all production primitives drive sparse scheduling.
void E3_AggregateAndBroadcastDense(benchmark::State& state) {
  run_e3_aggregate(state, /*sparse_rounds=*/false);
}
BENCHMARK(E3_AggregateAndBroadcastDense)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Iterations(2)
    ->UseManualTime();

void E3_GlobalCollection(benchmark::State& state) {
  const std::size_t n = 4096;
  const auto k = static_cast<std::size_t>(state.range(0));
  double rounds = 0;
  for (auto _ : state) {
    auto net = bench::make_net(n, 45);
    prim::PathOverlay path = prim::undirect_initial_path(net);
    const prim::TreeOverlay tree = prim::build_bbst(net, path);
    std::vector<std::uint8_t> has(n, 0);
    std::vector<std::uint64_t> token(n, 0);
    for (std::size_t i = 0; i < k; ++i) {
      has[i] = 1;
      token[i] = i;
    }
    const ncc::Slot leader = path.order.back();
    bench::reset_peak_rss();
    const std::uint64_t before = net.stats().rounds;
    const auto t0 = Clock::now();
    auto collected = prim::global_collect(net, tree, leader, has, token);
    state.SetIterationTime(seconds_since(t0));
    benchmark::DoNotOptimize(collected.data());
    rounds += static_cast<double>(net.stats().rounds - before);
  }
  // Theorem 5 budget: O(k + log n); ours drains at capacity/round.
  bench::report_rounds(state, rounds,
                       static_cast<double>(state.iterations()) *
                           (static_cast<double>(k) + ceil_log2(n)));
  bench::report_peak_rss(state);
}
BENCHMARK(E3_GlobalCollection)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Iterations(2)
    ->UseManualTime();

}  // namespace
}  // namespace dgr

BENCHMARK_MAIN();
