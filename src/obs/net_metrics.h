// obs::NetMetrics — a TelemetrySink that folds the engine's per-round
// RoundSamples into the process-wide metrics registry, giving the CCP-style
// datapath export shape: cumulative message counters, drop events, and an
// EWMA'd delivery rate an external controller can steer from.
//
// One instance per Network: attach with Network::set_telemetry(&m), or
// forward samples to it from a composing sink (the scenario runner builds
// one per run). on_round runs in referee context — single-threaded per
// Network — so the EWMA state and its last-exported gauge values need no
// synchronization; an instance shared by concurrent Networks races on them.
// The registry cells it writes are sharded and safe against concurrent
// instances sharing one registry.
#pragma once

#include <cstdint>

#include "ncc/telemetry.h"
#include "obs/metrics.h"

namespace dgr::obs {

class NetMetrics : public ncc::TelemetrySink {
 public:
  /// Resolves (get-or-create) the dgr_net_* metrics in `reg`. Multiple
  /// NetMetrics instances aggregate into the same counters; the EWMA gauges
  /// are exported as signed deltas so concurrent instances sum sensibly.
  explicit NetMetrics(Registry& reg = Registry::instance());
  ~NetMetrics() override;

  void on_round(const ncc::RoundSample& smp) override;

  /// EWMA (alpha = 1/8) of per-round delivered messages, fixed-point x1000.
  std::uint64_t delivered_per_round_ewma_x1000() const { return ewma_x1000_; }
  /// EWMA (alpha = 1/8) of delivered/sent per round, parts-per-million.
  std::uint64_t delivery_ratio_ewma_ppm() const { return ratio_ppm_; }

 private:
  // Cumulative counters (shared across instances).
  Counter* rounds_;
  Counter* sent_;
  Counter* delivered_;
  Counter* bounced_;
  Counter* dropped_;
  Counter* drop_events_;  ///< rounds with >= 1 dropped message
  Counter* phase_body_ns_;
  Counter* phase_sort_ns_;
  Counter* phase_rng_ns_;
  Counter* phase_placement_ns_;
  Counter* phase_learn_ns_;
  Histogram* round_sent_;  ///< per-round sent-message distribution

  // Instance-local smoothed state, exported to shared gauges as deltas
  // against the last exported value (so teardown subtracts cleanly).
  Gauge* ewma_gauge_;
  Gauge* ratio_gauge_;
  Gauge* frontier_gauge_;
  Gauge* crashed_gauge_;
  std::uint64_t ewma_x1000_ = 0;
  std::uint64_t ratio_ppm_ = 0;
  std::int64_t exported_ewma_ = 0;
  std::int64_t exported_ratio_ = 0;
  std::int64_t exported_frontier_ = 0;
  std::int64_t exported_crashed_ = 0;
  bool primed_ = false;
};

}  // namespace dgr::obs
