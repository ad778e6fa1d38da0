// Interval-folding telemetry collector for scenario runs.
//
// Attached to a Network (ncc/telemetry.h), it folds each RoundSample into
// the open interval record; every `interval_rounds` rounds the record is
// closed into a fixed-capacity ring buffer (oldest intervals overwritten),
// so a million-round run costs a constant memory footprint while the tail
// — where fault plans usually bite — stays inspectable. Run-wide totals
// are maintained independently of the ring, so nothing about the totals is
// lost to overwrites.
//
// Determinism: every folded field is transcript content (invariant across
// thread counts and sparse/dense scheduling). The execution-strategy
// counters (dense_sweep_rounds, sparse_dispatch_rounds)
// describe how the engine chose to run and are deliberately kept OUT of
// the scenario reports (report.cpp), which promise byte-identical output
// across schedulers; they remain queryable here for perf forensics.
#pragma once

#include <cstdint>
#include <vector>

#include "ncc/telemetry.h"

namespace dgr::scenario {

/// Per-round counters folded over one interval of rounds.
struct IntervalRecord {
  std::uint64_t first_round = 0;  ///< engine round index the interval opened
  std::uint64_t rounds = 0;       ///< rounds folded (== interval, or the tail)
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bounced = 0;
  std::uint64_t dropped = 0;
  std::uint32_t max_send = 0;      ///< max per-node sends in any round
  std::uint32_t max_recv = 0;      ///< max per-node arrivals in any round
  std::uint32_t max_touched = 0;   ///< max destinations touched in any round
  std::uint32_t max_frontier = 0;  ///< max active-set size in any round
  std::uint64_t inbox_words_peak = 0;
  std::uint32_t crashed_end = 0;   ///< crashed count after the last round
  // Execution strategy (not part of the report surface).
  std::uint32_t dense_sweep_rounds = 0;
  std::uint32_t sparse_dispatch_rounds = 0;
};

class Telemetry : public ncc::TelemetrySink {
 public:
  explicit Telemetry(std::uint64_t interval_rounds = 8,
                     std::size_t ring_capacity = 64);

  void on_round(const ncc::RoundSample& s) override;

  /// Close the open partial interval (if any) into the ring. Call once the
  /// run ends; on_round keeps working afterwards (a new interval opens).
  void flush();

  /// Closed intervals still retained, oldest first.
  std::size_t intervals() const;
  const IntervalRecord& interval(std::size_t i) const;
  std::vector<IntervalRecord> snapshot() const;
  /// Intervals lost to ring overwrite.
  std::uint64_t evicted() const;

  /// Run-wide totals (never evicted). `rounds` counts every sample seen.
  const IntervalRecord& totals() const { return totals_; }

 private:
  void fold(IntervalRecord& r, const ncc::RoundSample& s);

  std::uint64_t interval_rounds_;
  std::size_t cap_;
  IntervalRecord cur_;
  bool open_ = false;
  std::vector<IntervalRecord> ring_;
  std::uint64_t closed_ = 0;  ///< total intervals ever closed
  IntervalRecord totals_;
};

}  // namespace dgr::scenario
