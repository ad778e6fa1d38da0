// Shared helpers for the benchmark harness.
//
// Benchmarks that run a primitive report simulator *round counts* as custom
// counters next to the wall-clock time: "rounds" (measured), "bound" (the
// closed-form bound for the instance) and "ratio" = rounds / bound. The
// paper's round bounds themselves are gated by the `claims` ctest
// (tests/test_claims.cpp); see EXPERIMENTS.md.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "occupancy.h"
#include "rss.h"
#include "ncc/config.h"
#include "ncc/network.h"
#include "obs/rows.h"

namespace dgr::bench {

inline ncc::Network make_net(std::size_t n, std::uint64_t seed,
                             bool sparse_rounds = true) {
  ncc::Config cfg;
  cfg.seed = seed;
  // sparse_rounds = false is the dense reference dispatch (round_active
  // runs every slot); benchmarked so the reference path can't silently rot.
  cfg.sparse_rounds = sparse_rounds;
  return ncc::Network(n, cfg);
}

/// Thread-occupancy reporting: every thread-sweeping benchmark calls this
/// with the worker-thread demand it is about to impose. When that demand
/// exceeds the machine's hardware concurrency the numbers are wall-clock
/// lies-in-waiting (threads time-share cores), so degrade LOUDLY: print a
/// stderr warning per sweep and record "oversubscribed": 1 plus the
/// machine's "cores" as counters — custom counters land in --benchmark_out
/// JSON, so committed baselines carry the flag and a reviewer can tell a
/// degraded run from a real one.
inline void report_thread_occupancy(benchmark::State& state,
                                    unsigned threads) {
  const unsigned hw = hardware_cores();
  // The container's Google Benchmark predates State::name(); the JSON
  // counters carry the per-benchmark attribution, the warning is generic.
  const bool over = warn_if_oversubscribed(threads, "benchmark sweep point");
  // Plain counters (no per-iteration averaging): these are properties of
  // the run, not rates.
  state.counters["threads"] = benchmark::Counter(static_cast<double>(threads));
  state.counters["cores"] = benchmark::Counter(static_cast<double>(hw));
  state.counters["oversubscribed"] = benchmark::Counter(over ? 1.0 : 0.0);
}

/// Record the process's peak RSS (bytes) as a plain counter. Call after
/// the timing loop; pair with reset_peak_rss() before it for a
/// per-benchmark window rather than a process-lifetime high-water mark.
inline void report_peak_rss(benchmark::State& state) {
  state.counters["peak_rss_bytes"] =
      benchmark::Counter(static_cast<double>(peak_rss_bytes()));
}

/// Report a subset of an obs rows snapshot (ServiceStats, CacheStats,
/// NetStats — see obs/rows.h) as benchmark counters. One extraction path
/// shared with dgr_serve and the exporter: benchmarks name which rows they
/// want instead of re-plumbing struct fields into counters by hand.
inline void report_rows(benchmark::State& state,
                        const std::vector<obs::Row>& rows,
                        std::initializer_list<const char*> names,
                        benchmark::Counter::Flags flags =
                            benchmark::Counter::kIsRate) {
  for (const auto& row : rows) {
    for (const char* name : names) {
      if (row.name == name) {
        state.counters[row.name] =
            benchmark::Counter(static_cast<double>(row.value), flags);
      }
    }
  }
}

inline void report_rounds(benchmark::State& state, double rounds,
                          double bound) {
  state.counters["rounds"] =
      benchmark::Counter(rounds, benchmark::Counter::kAvgIterations);
  state.counters["bound"] =
      benchmark::Counter(bound, benchmark::Counter::kAvgIterations);
  if (bound > 0) {
    state.counters["ratio"] = benchmark::Counter(
        rounds / bound, benchmark::Counter::kAvgIterations);
  }
}

}  // namespace dgr::bench
