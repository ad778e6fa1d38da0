// Scenario runner: executes realization algorithms over a scenario matrix
// with orchestrated faults, validates every completed output against
// realization/validate, and assembles deterministic reports.
//
// Run anatomy (one RunRecord per (scenario, algorithm, n)):
//   1. build stage — the realization algorithm runs start-to-finish on a
//      fresh Network (seeded from (runner seed, scenario, algorithm, n));
//      the compiled fault schedule's build-stage actions replay through
//      the telemetry hook.
//   2. exchange stage — §8 robustness traffic over the realized overlay,
//      under the schedule's exchange-stage actions. For the explicit
//      algorithm this IS the explicitization (fire-and-forget when the
//      stage is clean, ACK+retransmit under loss, bounded-retry under
//      crash waves); for every other algorithm it is an overlay ping
//      sweep: each aware endpoint delivers one token per stored edge over
//      the same transports.
//   3. validation — the per-algorithm realize::validate_* check; crash
//      scenarios validate the explicit output at survivor scope
//      (validate_explicit_survivors).
//
// Determinism contract (tested): with a fixed options.seed, the assembled
// MatrixReport — and its JSON/CSV serialization — is byte-for-byte
// identical for any worker-thread count and under either round scheduler
// (Config::sparse_rounds true/false). Execution-strategy telemetry is
// therefore excluded from RunRecord (see scenario/telemetry.h).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/telemetry.h"

namespace dgr::ncc {
struct RoundSample;
}  // namespace dgr::ncc

namespace dgr::obs {
class Registry;
}  // namespace dgr::obs

namespace dgr::scenario {

struct RunRecord;

struct RunnerOptions {
  std::uint64_t seed = 1;
  unsigned threads = 1;          ///< execution detail; not in reports
  bool sparse_rounds = true;     ///< execution detail; not in reports
  /// Concurrent runs (1 = the serial loop). Execution detail: the matrix
  /// is dispatched as indexed tasks on the process-wide Executor and
  /// merged back in declarative (spec x algo x n) order, so the assembled
  /// report is byte-identical for any jobs value. Composes with `threads`:
  /// each in-flight run may itself fan its rounds out over the executor.
  unsigned jobs = 1;
  std::vector<std::size_t> n_override;  ///< empty = spec.n_sweep
  std::vector<Algo> algos{kAllAlgos.begin(), kAllAlgos.end()};
  bool keep_intervals = true;  ///< include interval series in records
  /// Completion hook: called once per finished run with (done, total,
  /// record), where done counts COMPLETED runs (atomic; completion order,
  /// not declarative order, under jobs > 1). Calls are serialized — a
  /// progress printer needs no locking of its own.
  std::function<void(std::size_t, std::size_t, const RunRecord&)> progress;
  /// Registry the runs' dgr_net_* metrics fold into. Each run builds its
  /// own obs::NetMetrics on it (the instance's EWMA and exported-gauge
  /// state is per Network, so concurrent runs never share it) and
  /// withdraws its gauge contribution when it ends; the registry's cells
  /// are safe under concurrent runs. Execution detail, never in reports —
  /// transcripts are bit-identical attached or detached. Non-owning; must
  /// outlive the call.
  obs::Registry* metrics = nullptr;
  /// Live per-round hook: (scenario, algo, n, sample) in referee context —
  /// this is what `dgr_scenarios --telemetry-socket` feeds NDJSON events
  /// from. Execution detail like `metrics`, but one hook for all runs:
  /// under jobs > 1 it is called concurrently from different runs
  /// (obs::Exporter::publish serializes internally).
  std::function<void(const std::string&, const std::string&, std::uint64_t,
                     const ncc::RoundSample&)>
      on_sample;
};

/// Everything one run produced. All counters are engine-transcript values.
struct RunRecord {
  std::string scenario;
  std::string algo;
  std::uint64_t n = 0;

  /// "ok" — algorithm completed; "unrealizable" — input correctly reported
  /// unrealizable (star-heavy tree repairs etc. never produce this in the
  /// shipped library); "stalled" — a wave died or the round budget fired
  /// (recorded, not thrown).
  std::string outcome;
  bool validated = false;
  std::string validation;  ///< "pass", "skipped (<why>)", or failure text

  std::uint64_t build_rounds = 0;
  std::uint64_t exchange_rounds = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bounced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t max_send = 0;
  std::uint64_t max_recv = 0;
  std::uint64_t max_frontier = 0;
  std::uint64_t inbox_words_peak = 0;
  std::uint64_t crashed = 0;          ///< crashed nodes at run end
  std::uint64_t edges = 0;            ///< realized aware-side edges
  std::uint64_t exchange_total = 0;   ///< exchange-stage tokens offered
  std::uint64_t exchange_given_up = 0;  ///< abandoned (crashed peers)

  std::vector<IntervalRecord> intervals;  ///< telemetry ring snapshot
};

struct ScenarioReport {
  std::string name;
  std::string description;
  std::vector<RunRecord> runs;
};

struct MatrixReport {
  std::uint64_t seed = 0;
  std::vector<ScenarioReport> scenarios;

  std::size_t run_count() const;
  /// True when every run completed and validated ("pass").
  bool all_validated() const;
};

/// One (scenario, algorithm, n) run; throws CheckError only on spec
/// errors, never on in-run faults (those become outcome codes).
RunRecord run_one(const ScenarioSpec& spec, Algo algo, std::size_t n,
                  const RunnerOptions& opt);

/// The full matrix: every spec x opt.algos x n sweep.
MatrixReport run_matrix(std::span<const ScenarioSpec> specs,
                        const RunnerOptions& opt);

}  // namespace dgr::scenario
