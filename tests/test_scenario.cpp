// The scenario harness: library integrity, compiled fault schedules,
// matrix runs (validation under faults), and report determinism across
// thread counts, round schedulers, and re-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "graph/degree_sequence.h"
#include "obs/metrics.h"
#include "scenario/library.h"
#include "scenario/report.h"
#include "scenario/runner.h"

namespace dgr {
namespace {

using scenario::Algo;
using scenario::builtin_scenarios;
using scenario::FaultEvent;
using scenario::MatrixReport;
using scenario::RunnerOptions;
using scenario::ScenarioSpec;
using scenario::Stage;

RunnerOptions small_opts() {
  RunnerOptions opt;
  opt.seed = 1;
  opt.n_override = {32};
  return opt;
}

TEST(ScenarioLibrary, HasAtLeastEightValidUniqueScenarios) {
  const auto& lib = builtin_scenarios();
  EXPECT_GE(lib.size(), 8u);
  std::set<std::string> names;
  for (const auto& s : lib) {
    EXPECT_TRUE(scenario::check_spec(s).empty())
        << s.name << ": " << scenario::check_spec(s);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_FALSE(s.description.empty()) << s.name;
  }
  // The axes the harness promises are all represented.
  EXPECT_NE(scenario::find_scenario("clean-regular"), nullptr);
  EXPECT_NE(scenario::find_scenario("clean-ncc1"), nullptr);
  EXPECT_NE(scenario::find_scenario("tiny-capacity-flood"), nullptr);
  EXPECT_NE(scenario::find_scenario("lossy-ramp"), nullptr);
  EXPECT_NE(scenario::find_scenario("crash-wave-mid-build"), nullptr);
  EXPECT_EQ(scenario::find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioSpecCheck, RejectsBuildStageFaults) {
  ScenarioSpec s = *scenario::find_scenario("clean-regular");
  FaultEvent e;
  e.kind = FaultEvent::Kind::kCrashWave;
  e.stage = Stage::kBuild;
  e.crash_permille = 100;
  s.plan.events.push_back(e);
  EXPECT_FALSE(scenario::check_spec(s).empty());
  s.plan.events.back().kind = FaultEvent::Kind::kLossBurst;
  s.plan.events.back().loss_permille = 100;
  EXPECT_FALSE(scenario::check_spec(s).empty());
}

TEST(ScenarioCompile, ScheduleIsDeterministicAndWellFormed) {
  const ScenarioSpec& s = *scenario::find_scenario("crash-wave-mid-build");
  const auto a = scenario::compile_plan(s, 40, 77);
  const auto b = scenario::compile_plan(s, 40, 77);
  ASSERT_EQ(a.exchange.size(), b.exchange.size());
  std::set<ncc::Slot> crashed;
  std::uint64_t prev_round = 0;
  bool first = true;
  for (std::size_t i = 0; i < a.exchange.size(); ++i) {
    EXPECT_EQ(a.exchange[i].round, b.exchange[i].round);
    EXPECT_EQ(a.exchange[i].crash, b.exchange[i].crash);
    if (!first) {
      EXPECT_GT(a.exchange[i].round, prev_round);
    }
    prev_round = a.exchange[i].round;
    first = false;
    for (const ncc::Slot slot : a.exchange[i].crash) {
      EXPECT_LT(slot, 40u);
      EXPECT_TRUE(crashed.insert(slot).second)
          << "slot " << slot << " crashed by two waves";
    }
  }
  EXPECT_EQ(crashed.size(), a.planned_crashes);
  // Two 15% waves of 40 nodes: 6 + 5 slots.
  EXPECT_EQ(a.planned_crashes, 11u);
  // A different seed draws different waves.
  const auto c = scenario::compile_plan(s, 40, 78);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.exchange.size(); ++i) {
    if (a.exchange[i].crash != c.exchange[i].crash) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioInputs, AdaptersProduceRunnableInstances) {
  for (const auto& s : builtin_scenarios()) {
    for (const std::size_t n : {32ul, 48ul}) {
      const auto deg = scenario::degrees_for(s, n, 9);
      ASSERT_EQ(deg.size(), n) << s.name;
      EXPECT_TRUE(graph::erdos_gallai_graphic(deg)) << s.name;
      const auto td = scenario::tree_degrees_for(s, n, 9);
      EXPECT_TRUE(graph::tree_realizable(td)) << s.name;
      const auto rho = scenario::thresholds_for(s, n, 9);
      ASSERT_EQ(rho.size(), n) << s.name;
      for (const auto r : rho) {
        EXPECT_GE(r, 1u) << s.name;
        EXPECT_LE(r, n - 1) << s.name;
      }
    }
  }
}

TEST(ScenarioRunner, CleanScenarioValidatesAllFiveAlgorithms) {
  const auto opt = small_opts();
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("clean-regular")};
  const MatrixReport rep = scenario::run_matrix(specs, opt);
  EXPECT_EQ(rep.run_count(), 5u);
  for (const auto& r : rep.scenarios[0].runs) {
    EXPECT_EQ(r.outcome, "ok") << r.algo;
    EXPECT_TRUE(r.validated) << r.algo << ": " << r.validation;
    EXPECT_GT(r.total_rounds, 0u) << r.algo;
    EXPECT_GT(r.edges, 0u) << r.algo;
    EXPECT_EQ(r.crashed, 0u) << r.algo;
    EXPECT_EQ(r.dropped, 0u) << r.algo;
    EXPECT_EQ(r.exchange_given_up, 0u) << r.algo;
    EXPECT_FALSE(r.intervals.empty()) << r.algo;
  }
}

TEST(ScenarioRunner, FaultInterplayLossCrashAndBounceInOneRun) {
  // Loss burst + crash wave + capacity squeeze in a single exchange stage:
  // the §8 trifecta. The build stays clean, so outputs validate (survivor
  // scope for the explicit algorithm).
  ScenarioSpec s = *scenario::find_scenario("clean-regular");
  s.name = "interplay";
  s.degree = 10;
  s.capacity_factor = 1;  // capacity floor: bounce pressure everywhere
  s.min_capacity = 6;
  s.exchange_tokens = 6;
  FaultEvent burst;
  burst.kind = FaultEvent::Kind::kLossBurst;
  burst.stage = Stage::kExchange;
  burst.at_round = 1;
  burst.duration = 12;
  burst.loss_permille = 250;
  s.plan.events.push_back(burst);
  FaultEvent wave;
  wave.kind = FaultEvent::Kind::kCrashWave;
  wave.stage = Stage::kExchange;
  wave.at_round = 3;
  wave.crash_permille = 150;
  s.plan.events.push_back(wave);

  RunnerOptions opt = small_opts();
  opt.n_override = {48};
  const std::vector<ScenarioSpec> specs = {s};
  const MatrixReport rep = scenario::run_matrix(specs, opt);
  ASSERT_EQ(rep.run_count(), 5u);
  bool saw_crashes = false;
  for (const auto& r : rep.scenarios[0].runs) {
    EXPECT_EQ(r.outcome, "ok") << r.algo;
    EXPECT_TRUE(r.validated) << r.algo << ": " << r.validation;
    EXPECT_GT(r.bounced, 0u) << r.algo;  // capacity squeeze bit
    EXPECT_GT(r.dropped, 0u) << r.algo;  // loss or crashed receivers bit
    if (r.crashed > 0) saw_crashes = true;
    // Bounded transport accounting: nothing silently lost — every token
    // was delivered, abandoned (crashed peer), or stranded on a crashed
    // sender.
    EXPECT_LE(r.exchange_given_up, r.exchange_total) << r.algo;
  }
  EXPECT_TRUE(saw_crashes);
}

TEST(ScenarioRunner, StalledBuildIsRecordedNotThrown) {
  ScenarioSpec s = *scenario::find_scenario("clean-regular");
  s.name = "stall-probe";
  s.max_rounds = 3;  // no realization finishes in 3 rounds
  RunnerOptions opt = small_opts();
  opt.algos = {Algo::kImplicitDegree};
  const std::vector<ScenarioSpec> specs = {s};
  const MatrixReport rep = scenario::run_matrix(specs, opt);
  ASSERT_EQ(rep.run_count(), 1u);
  const auto& r = rep.scenarios[0].runs[0];
  EXPECT_EQ(r.outcome, "stalled");
  EXPECT_FALSE(r.validated);
  EXPECT_NE(r.validation.find("skipped"), std::string::npos);
  EXPECT_FALSE(rep.all_validated());
}

// The determinism contract: same seed => byte-identical JSON report, for
// any thread count, under either scheduler, and across re-runs. Exercised
// on the fault-heavy scenarios where divergence would hide.
TEST(ScenarioReport, ByteIdenticalAcrossThreadsSchedulersAndReruns) {
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("lossy-burst-flips"),
      *scenario::find_scenario("crash-wave-mid-build")};
  RunnerOptions opt = small_opts();
  opt.algos = {Algo::kImplicitDegree, Algo::kExplicitDegree, Algo::kTree};

  const std::string base =
      scenario::to_json(scenario::run_matrix(specs, opt));
  const std::string base_csv =
      scenario::to_csv(scenario::run_matrix(specs, opt));
  EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, opt)))
      << "re-run with identical options diverged";
  EXPECT_EQ(base_csv, scenario::to_csv(scenario::run_matrix(specs, opt)));

  for (const unsigned threads : {4u, 8u}) {
    RunnerOptions t = opt;
    t.threads = threads;
    EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, t)))
        << "threads=" << threads;
  }
  RunnerOptions dense = opt;
  dense.sparse_rounds = false;
  EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, dense)))
      << "dense scheduler diverged";
  RunnerOptions dense_mt = dense;
  dense_mt.threads = 4;
  EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, dense_mt)));

  // And the seed genuinely matters (the contract is not vacuous).
  RunnerOptions other = opt;
  other.seed = 2;
  EXPECT_NE(base, scenario::to_json(scenario::run_matrix(specs, other)));
}

// Concurrent matrix runs (jobs > 1) dispatch run_one over the process-wide
// executor; the merge is by declarative index, so reports stay byte-equal
// to the serial run — including when each run is itself multithreaded.
TEST(ScenarioReport, ByteIdenticalAcrossJobCounts) {
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("lossy-burst-flips"),
      *scenario::find_scenario("crash-wave-mid-build")};
  RunnerOptions opt = small_opts();
  opt.algos = {Algo::kImplicitDegree, Algo::kTree};

  const std::string base =
      scenario::to_json(scenario::run_matrix(specs, opt));
  const std::string base_csv =
      scenario::to_csv(scenario::run_matrix(specs, opt));
  for (const unsigned jobs : {2u, 4u}) {
    RunnerOptions j = opt;
    j.jobs = jobs;
    EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, j)))
        << "jobs=" << jobs;
    EXPECT_EQ(base_csv, scenario::to_csv(scenario::run_matrix(specs, j)))
        << "jobs=" << jobs;
  }
  // Runner-level and Network-level parallelism composed (nested executor
  // jobs): still the same bytes.
  RunnerOptions both = opt;
  both.jobs = 4;
  both.threads = 4;
  EXPECT_EQ(base, scenario::to_json(scenario::run_matrix(specs, both)));
}

// The progress callback under concurrency: `done` values form exactly the
// sequence 1..total with a constant total, and the callback is serialized
// (the mutex in run_matrix), so counters can't interleave or repeat.
TEST(ScenarioReport, ProgressAccountingExactUnderConcurrency) {
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("clean-regular"),
      *scenario::find_scenario("lossy-ramp")};
  RunnerOptions opt = small_opts();
  opt.algos = {Algo::kImplicitDegree, Algo::kExplicitDegree};
  opt.jobs = 4;

  std::vector<std::size_t> seen_done;
  std::set<std::string> seen_runs;
  std::size_t expected_total =
      specs.size() * opt.algos.size() * opt.n_override.size();
  bool total_consistent = true;
  bool records_validated = true;
  opt.progress = [&](std::size_t done, std::size_t total,
                     const scenario::RunRecord& rec) {
    seen_done.push_back(done);
    total_consistent = total_consistent && total == expected_total;
    records_validated = records_validated && rec.validated;
    seen_runs.insert(rec.scenario + "/" + rec.algo + "/" +
                     std::to_string(rec.n));
  };
  const MatrixReport rep = scenario::run_matrix(specs, opt);

  ASSERT_EQ(seen_done.size(), expected_total);
  EXPECT_TRUE(total_consistent);
  EXPECT_TRUE(records_validated);
  // Completion order is nondeterministic, but the done counter is issued
  // under the progress mutex: sorted, it must be exactly 1..total.
  std::sort(seen_done.begin(), seen_done.end());
  for (std::size_t i = 0; i < seen_done.size(); ++i) {
    EXPECT_EQ(seen_done[i], i + 1);
  }
  // Every (scenario, algo, n) cell reported exactly once.
  EXPECT_EQ(seen_runs.size(), expected_total);
  EXPECT_EQ(rep.run_count(), expected_total);
}

// RunnerOptions::metrics names a registry; each run folds into it through
// its own obs::NetMetrics, so concurrent runs share only the registry's
// sharded cells (the TSan job runs this at jobs = 4). Counters sum over the
// runs, and every gauge reads 0 once the matrix returns because each run
// withdrew its contribution when it ended.
TEST(ScenarioReport, PerRunMetricsUnderConcurrentJobs) {
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("lossy-burst-flips"),
      *scenario::find_scenario("crash-wave-mid-build")};
  RunnerOptions opt = small_opts();
  const std::string detached =
      scenario::to_json(scenario::run_matrix(specs, opt));

  obs::Registry reg;
  obs::Gauge& ewma = reg.gauge("dgr_net_delivered_per_round_ewma_x1000", "");
  std::atomic<bool> saw_live_gauge{false};
  opt.jobs = 4;
  opt.metrics = &reg;
  opt.on_sample = [&](const std::string&, const std::string&, std::uint64_t,
                      const ncc::RoundSample&) {
    if (ewma.value() > 0) saw_live_gauge = true;
  };
  const MatrixReport rep = scenario::run_matrix(specs, opt);
  EXPECT_EQ(detached, scenario::to_json(rep));
  EXPECT_TRUE(saw_live_gauge);

  std::int64_t rounds = 0;
  for (const auto& sr : rep.scenarios) {
    for (const auto& r : sr.runs)
      rounds += static_cast<std::int64_t>(r.total_rounds);
  }
  ASSERT_GT(rounds, 0);
  std::size_t gauges = 0;
  bool saw_rounds = false;
  for (const obs::Sample& m : reg.snapshot().samples) {
    if (m.name == "dgr_net_rounds_total") {
      EXPECT_EQ(m.value, rounds);
      saw_rounds = true;
    }
    if (m.type == obs::MetricType::kGauge &&
        m.name.rfind("dgr_net_", 0) == 0) {
      EXPECT_EQ(m.value, 0) << m.name;
      ++gauges;
    }
  }
  EXPECT_TRUE(saw_rounds);
  EXPECT_EQ(gauges, 4u);
}

TEST(ScenarioReport, JsonShapeAndCsvRowCount) {
  RunnerOptions opt = small_opts();
  opt.algos = {Algo::kApproxDegree};
  const std::vector<ScenarioSpec> specs = {
      *scenario::find_scenario("clean-ncc1")};
  const MatrixReport rep = scenario::run_matrix(specs, opt);
  const std::string json = scenario::to_json(rep);
  EXPECT_NE(json.find("\"schema\": \"dgr-scenario-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"all_validated\": true"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
  // Execution-strategy fields must never leak into the report surface.
  EXPECT_EQ(json.find("sparse"), std::string::npos);
  EXPECT_EQ(json.find("dense"), std::string::npos);
  EXPECT_EQ(json.find("threads"), std::string::npos);
  const std::string csv = scenario::to_csv(rep);
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1 + rep.run_count());
}

}  // namespace
}  // namespace dgr
