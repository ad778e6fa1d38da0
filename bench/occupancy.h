// Thread-occupancy guard shared by every thread-sweeping benchmark —
// including the plain-main JSON driver (bench_scale) that links without
// Google Benchmark, which is why this lives outside
// bench_common.h. When a sweep's worker-thread demand exceeds the
// machine's hardware concurrency the timings are wall-clock
// lies-in-waiting (threads time-share cores), so degrade LOUDLY: warn on
// stderr per sweep and stamp "cores" / "oversubscribed" into whatever JSON
// the caller emits, so committed baselines carry the flag and a reviewer
// can tell a degraded run from a real one.
#pragma once

#include <cstdio>
#include <thread>

namespace dgr::bench {

/// The machine's hardware concurrency (0 when unknown).
inline unsigned hardware_cores() { return std::thread::hardware_concurrency(); }

/// Warn (stderr, once per call — i.e. once per sweep point) when `threads`
/// oversubscribes the machine; returns whether it does. `label` names the
/// sweep in the warning.
inline bool warn_if_oversubscribed(unsigned threads, const char* label) {
  const unsigned hw = hardware_cores();
  const bool over = hw != 0 && threads > hw;
  if (over) {
    std::fprintf(stderr,
                 "WARNING: %s requests %u worker threads but the machine "
                 "has %u hardware threads — timings are oversubscribed "
                 "(flagged \"oversubscribed\": 1 in the emitted JSON)\n",
                 label, threads, hw);
  }
  return over;
}

}  // namespace dgr::bench
