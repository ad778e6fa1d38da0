// Per-round telemetry hook for the round engine (§8 robustness harness).
//
// A TelemetrySink attached with Network::set_telemetry receives one
// RoundSample at the end of every delivery — after the round's frontier has
// been rebuilt and all statistics folded, but before the next round starts.
// The sample carries this round's deltas (not cumulative totals), so a
// collector can fold intervals without differencing NetStats snapshots.
//
// The hook is referee context: the engine guarantees no round body is
// executing when on_round fires, so a sink may legally steer the
// simulation — net.crash(s), net.set_drop_probability(p) — and the change
// takes effect from the next round. This is exactly how the scenario
// orchestrator (src/scenario/) injects its compiled fault schedule.
//
// Cost when detached: a handful of predictable branches per round (the
// sink-null check plus one per phase-timer boundary, all on the same cached
// flag) and no per-message work; none of the sample fields require extra
// bookkeeping on the hot path (every value is already computed by the
// delivery pipeline), and no clock is read while detached. bench_engine's
// flood A/B pins the detached overhead at threads=1.
#pragma once

#include <cstdint>

#include "ncc/stats.h"

namespace dgr::ncc {

/// One completed round's engine-visible activity. Every field is invariant
/// across worker-thread counts and across sparse/dense scheduling of the
/// same bodies (the transcript contract), EXCEPT the execution-strategy
/// flags at the bottom, which describe how the engine chose to run the
/// round — consumers that promise byte-identical output across schedulers
/// (e.g. scenario reports) must not serialize those.
struct RoundSample {
  std::uint64_t round = 0;       ///< index of the round that just completed
  std::uint64_t sent = 0;        ///< messages accepted by Ctx::send
  std::uint64_t delivered = 0;   ///< reached an inbox
  std::uint64_t bounced = 0;     ///< returned to sender (overflow)
  std::uint64_t dropped = 0;     ///< lost to link loss or crashed receiver
  std::uint32_t max_send = 0;    ///< max per-node sends this round
  std::uint32_t max_recv = 0;    ///< max per-node arrivals this round
  std::uint32_t touched_dests = 0;  ///< destinations with >= 1 arrival
  std::uint64_t inbox_words = 0;    ///< inbox arena extent this round (words)
  std::uint32_t frontier = 0;    ///< next round's active-set size
  bool frontier_tracked = false; ///< frontier == 0 means "untracked" if false
  std::uint32_t crashed = 0;     ///< total crashed nodes after this round

  // Execution strategy (bookkeeping choices, not transcript content).
  bool dense_sweep = false;      ///< delivery used sequential O(n) sweeps
  bool sparse_dispatch = false;  ///< bodies ran on the active list only

  /// This round's per-phase wall time (body / sort / rng / placement /
  /// learn; ncc/stats.h). Wall-clock measurement, NOT transcript content —
  /// values vary run to run and with the thread count, so byte-determinism
  /// consumers must not serialize them (same rule as the strategy flags).
  PhaseNanos phase_ns;
};

/// Attach with Network::set_telemetry(&sink); detach with nullptr. The
/// Network does not own the sink; it must outlive the attachment. A
/// Network has exactly one slot: a caller with several observers composes
/// them behind one sink, as the scenario runner's orchestrator does.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_round(const RoundSample& sample) = 0;
};

}  // namespace dgr::ncc
