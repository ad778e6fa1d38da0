#include "scenario/runner.h"

#include <algorithm>
#include <mutex>
#include <optional>

#include "ncc/executor.h"
#include "ncc/network.h"
#include "obs/net_metrics.h"
#include "primitives/collection.h"
#include "primitives/reliable.h"
#include "realization/approx_degree.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/tree_realization.h"
#include "realization/validate.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::scenario {

namespace {

constexpr std::uint32_t kTagPing = 0x7A0;

/// Interval width (rounds) and ring capacity of each run's telemetry
/// collector: the shape of RunRecord::intervals in every report.
constexpr std::uint64_t kTelemetryInterval = 8;
constexpr std::size_t kTelemetryRing = 64;

/// Attempt budget for crash-tolerant transports: generous enough that a
/// message to a LIVE peer is effectively never abandoned (give-ups mean
/// "peer crashed"), small enough that crashed peers cost bounded rounds.
constexpr std::uint64_t kMaxAttempts = 48;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The run's one telemetry sink. Replays a compiled stage schedule through
/// the engine's telemetry hook (referee context — see ncc/telemetry.h) and
/// forwards every sample to the interval collector, the live on_sample
/// hook and, when opt.metrics names a registry, the run's own NetMetrics.
/// Action semantics: an action with stage-relative round r is applied
/// before the stage's r-th round executes.
class Orchestrator : public ncc::TelemetrySink {
 public:
  Orchestrator(ncc::Network& net, Telemetry& collect, const RunRecord& rec,
               const RunnerOptions& opt)
      : net_(net), collect_(collect), rec_(rec), opt_(opt) {
    if (opt.metrics) metrics_.emplace(*opt.metrics);
  }

  void arm(const std::vector<RoundAction>& actions) {
    actions_ = &actions;
    next_ = 0;
    base_ = net_.stats().rounds;
    apply_due(0);
  }

  void on_round(const ncc::RoundSample& s) override {
    collect_.on_round(s);
    if (metrics_) metrics_->on_round(s);
    if (opt_.on_sample) opt_.on_sample(rec_.scenario, rec_.algo, rec_.n, s);
    if (actions_) apply_due(s.round + 1 - base_);
  }

 private:
  void apply_due(std::uint64_t rel) {
    while (next_ < actions_->size() && (*actions_)[next_].round <= rel) {
      const RoundAction& a = (*actions_)[next_++];
      if (a.set_loss_permille >= 0)
        net_.set_drop_probability(
            static_cast<double>(a.set_loss_permille) / 1000.0);
      for (const ncc::Slot s : a.crash) net_.crash(s);
    }
  }

  ncc::Network& net_;
  Telemetry& collect_;
  const RunRecord& rec_;      // run tag for on_sample (scenario/algo/n)
  const RunnerOptions& opt_;  // hooks only; never steers the run
  std::optional<obs::NetMetrics> metrics_;  // withdraws its gauges at exit
  const std::vector<RoundAction>* actions_ = nullptr;
  std::size_t next_ = 0;
  std::uint64_t base_ = 0;
};

std::uint64_t stored_edge_count(
    const std::vector<std::vector<ncc::NodeId>>& stored) {
  std::uint64_t total = 0;
  for (const auto& lst : stored) total += lst.size();
  return total;
}

struct BuildOutput {
  bool realizable = true;
  std::vector<std::vector<ncc::NodeId>> stored;    ///< aware-side edges
  std::vector<std::vector<ncc::NodeId>> adjacency; ///< explicit algo only
  realize::ImplicitDegreeResult implicit;          ///< explicit algo carry
  std::vector<std::uint64_t> input;                ///< degrees or rho
};

/// §8 exchange traffic for the non-explicit algorithms: `tokens` pings per
/// aware-side stored edge, transported to match the stage's fault profile.
void ping_sweep(ncc::Network& net, const BuildOutput& b,
                std::uint64_t tokens, bool crashes, bool loses,
                RunRecord& rec) {
  const std::size_t n = net.n();
  std::vector<std::vector<prim::DirectSend>> batch(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    for (const ncc::NodeId v : b.stored[s]) {
      for (std::uint64_t k = 0; k < tokens; ++k)
        batch[s].push_back({v, kTagPing, k, false});
    }
  }
  rec.exchange_total = stored_edge_count(b.stored) * tokens;
  // Delivery is accounted by the transports themselves (exchange_total -
  // given_up, and the engine's delivered counter); the sink needs no body.
  const prim::DirectDeliver sink = [](prim::Slot, ncc::NodeId,
                                      std::uint32_t, std::uint64_t) {};
  if (crashes) {
    const auto xc = prim::reliable_exchange_bounded(
        net, batch, sink, /*retransmit_after=*/4, kMaxAttempts);
    rec.exchange_given_up = xc.given_up;
  } else if (loses) {
    prim::reliable_exchange(net, batch, sink);
  } else {
    prim::direct_exchange(net, batch, sink);
  }
}

realize::Validation validate_run(const ncc::Network& net, Algo algo,
                                 const BuildOutput& b, bool crashed_exchange,
                                 std::uint64_t seed) {
  switch (algo) {
    case Algo::kApproxDegree:
      return realize::validate_upper_envelope(net, b.input, b.stored);
    case Algo::kImplicitDegree:
      return realize::validate_degree_realization(net, b.input, b.stored);
    case Algo::kExplicitDegree:
      return crashed_exchange
                 ? realize::validate_explicit_survivors(net, b.stored,
                                                        b.adjacency)
                 : realize::validate_explicit_adjacency(net, b.stored,
                                                        b.adjacency);
    case Algo::kTree:
      return realize::validate_tree_realization(net, b.input, b.stored);
    case Algo::kConnectivity:
      return realize::validate_connectivity_thresholds(net, b.input,
                                                       b.stored, seed);
  }
  return realize::Validation::fail("unknown algorithm");
}

}  // namespace

std::size_t MatrixReport::run_count() const {
  std::size_t total = 0;
  for (const auto& s : scenarios) total += s.runs.size();
  return total;
}

bool MatrixReport::all_validated() const {
  for (const auto& s : scenarios) {
    for (const auto& r : s.runs) {
      if (!r.validated) return false;
    }
  }
  return true;
}

RunRecord run_one(const ScenarioSpec& spec, Algo algo, std::size_t n,
                  const RunnerOptions& opt) {
  RunRecord rec;
  rec.scenario = spec.name;
  rec.algo = to_string(algo);
  rec.n = n;
  {
    const std::string err = check_spec(spec);
    DGR_CHECK_MSG(err.empty(),
                  "bad scenario spec '" << spec.name << "': " << err);
    // n may come from RunnerOptions::n_override, which check_spec (a pure
    // spec predicate) never sees — hold it to the same floor.
    DGR_CHECK_MSG(n >= 8, "scenario n = " << n
                              << " below the harness floor of 8");
  }

  // Every run gets its own seed stream, derived only from declarative
  // inputs — never from thread count or scheduling.
  const std::uint64_t run_seed =
      hash_mix(opt.seed, fnv1a(spec.name),
               hash_mix(static_cast<std::uint64_t>(algo) + 1, n));

  ncc::Config cfg;
  cfg.seed = run_seed;
  cfg.threads = opt.threads;
  cfg.sparse_rounds = opt.sparse_rounds;
  cfg.initial = spec.initial;
  cfg.overflow = spec.overflow;
  cfg.capacity_factor = spec.capacity_factor;
  cfg.min_capacity = spec.min_capacity;
  cfg.max_rounds = spec.max_rounds;
  ncc::Network net(n, cfg);

  const CompiledSchedule sched = compile_plan(spec, n, run_seed);
  Telemetry tel(kTelemetryInterval, kTelemetryRing);
  Orchestrator orch(net, tel, rec, opt);
  net.set_telemetry(&orch);

  const bool crashes_x = spec.plan.crashes(Stage::kExchange);
  const bool loses_x = spec.plan.loses(Stage::kExchange);

  BuildOutput b;
  auto finish = [&](const char* outcome, std::string validation,
                    bool validated) {
    rec.outcome = outcome;
    rec.validation = std::move(validation);
    rec.validated = validated;
    net.set_telemetry(nullptr);
    tel.flush();
    const ncc::NetStats& st = net.stats();
    rec.total_rounds = st.rounds;
    rec.sent = st.messages_sent;
    rec.delivered = st.messages_delivered;
    rec.bounced = st.messages_bounced;
    rec.dropped = st.messages_dropped;
    rec.max_send = st.max_send_in_round;
    rec.max_recv = st.max_recv_in_round;
    rec.max_frontier = tel.totals().max_frontier;
    rec.inbox_words_peak = tel.totals().inbox_words_peak;
    rec.crashed = net.crashed_count();
    rec.edges = stored_edge_count(b.stored);
    if (opt.keep_intervals) rec.intervals = tel.snapshot();
    return rec;
  };

  // --- Build stage -------------------------------------------------------
  orch.arm(sched.build);
  try {
    switch (algo) {
      case Algo::kApproxDegree: {
        b.input = degrees_for(spec, n, run_seed);
        if (net.is_clique()) {
          auto r = realize::realize_upper_envelope_ncc1(net, b.input);
          b.realizable = r.realizable;
          b.stored = std::move(r.stored);
        } else {
          auto r = realize::realize_degrees_implicit(
              net, b.input, realize::DegreeMode::kEnvelope);
          b.realizable = r.realizable;
          b.stored = std::move(r.stored);
        }
        break;
      }
      case Algo::kImplicitDegree: {
        b.input = degrees_for(spec, n, run_seed);
        auto r = realize::realize_degrees_implicit(
            net, b.input, realize::DegreeMode::kExact);
        b.realizable = r.realizable;
        b.stored = std::move(r.stored);
        break;
      }
      case Algo::kExplicitDegree: {
        b.input = degrees_for(spec, n, run_seed);
        b.implicit = realize::realize_degrees_implicit(
            net, b.input, realize::DegreeMode::kExact);
        b.realizable = b.implicit.realizable;
        b.stored = b.implicit.stored;
        break;
      }
      case Algo::kTree: {
        b.input = tree_degrees_for(spec, n, run_seed);
        auto r = spec.caterpillar
                     ? realize::realize_tree_caterpillar(net, b.input)
                     : realize::realize_tree_greedy(net, b.input);
        b.realizable = r.realizable;
        b.stored = std::move(r.stored);
        break;
      }
      case Algo::kConnectivity: {
        b.input = thresholds_for(spec, n, run_seed);
        auto r = net.is_clique()
                     ? realize::realize_connectivity_ncc1(net, b.input)
                     : realize::realize_connectivity_ncc0(net, b.input);
        b.realizable = r.realizable;
        b.stored = std::move(r.stored);
        break;
      }
    }
  } catch (const CheckError& e) {
    return finish("stalled", std::string("skipped (build: ") + e.what() + ")",
                  false);
  }
  rec.build_rounds = net.stats().rounds;
  if (!b.realizable)
    return finish("unrealizable", "skipped (input unrealizable)", false);

  // --- Exchange stage ----------------------------------------------------
  orch.arm(sched.exchange);
  try {
    if (algo == Algo::kExplicitDegree) {
      rec.exchange_total = stored_edge_count(b.stored);
      if (crashes_x) {
        auto rx = realize::make_explicit_resilient(
            net, b.implicit, /*retransmit_after=*/4, kMaxAttempts);
        b.adjacency = std::move(rx.result.adjacency);
        rec.exchange_given_up = rx.given_up;
      } else if (loses_x) {
        auto r = realize::make_explicit_reliable(net, b.implicit);
        b.adjacency = std::move(r.adjacency);
      } else {
        auto r = realize::make_explicit(net, b.implicit);
        b.adjacency = std::move(r.adjacency);
      }
    } else {
      ping_sweep(net, b, spec.exchange_tokens, crashes_x, loses_x, rec);
    }
  } catch (const CheckError& e) {
    return finish("stalled",
                  std::string("skipped (exchange: ") + e.what() + ")", false);
  }
  rec.exchange_rounds = net.stats().rounds - rec.build_rounds;

  // --- Validation --------------------------------------------------------
  // Validators walk referee state and may themselves throw (e.g. slot_of
  // on a NodeId a buggy realization invented); record that as a failed
  // run rather than aborting the whole matrix.
  try {
    const realize::Validation v =
        validate_run(net, algo, b, crashes_x, run_seed);
    return finish("ok", v.ok ? "pass" : v.message, v.ok);
  } catch (const CheckError& e) {
    return finish("ok", std::string("validator threw: ") + e.what(), false);
  }
}

MatrixReport run_matrix(std::span<const ScenarioSpec> specs,
                        const RunnerOptions& opt) {
  MatrixReport report;
  report.seed = opt.seed;


  // Flatten the matrix into an indexed task list in declarative
  // (spec x algo x n) order. Every run's seed derives only from these
  // declarative inputs (see run_one), and results land at their task
  // index, so the merged report is byte-identical no matter which order —
  // or on which thread — the runs actually execute.
  struct Task {
    const ScenarioSpec* spec;
    Algo algo;
    std::size_t n;
  };
  std::vector<Task> tasks;
  for (const ScenarioSpec& spec : specs) {
    const auto& sweep = opt.n_override.empty() ? spec.n_sweep : opt.n_override;
    for (const Algo algo : opt.algos) {
      for (const std::size_t n : sweep) tasks.push_back({&spec, algo, n});
    }
  }

  std::vector<RunRecord> results(tasks.size());
  std::size_t done = 0;  // guarded by progress_mu
  std::mutex progress_mu;
  auto run_task = [&](std::size_t i) {
    results[i] = run_one(*tasks[i].spec, tasks[i].algo, tasks[i].n, opt);
    // Serialize callbacks so a stderr progress printer never interleaves
    // lines from concurrent runs. The completion count is claimed INSIDE
    // the lock: incrementing it before acquiring would let a later
    // finisher report first, so the printer could see 7/12 then 6/12.
    // Under the lock the d values each callback observes are strictly
    // increasing.
    std::scoped_lock lk(progress_mu);
    const std::size_t d = ++done;
    if (opt.progress) opt.progress(d, tasks.size(), results[i]);
  };

  const unsigned jobs = std::max(1u, opt.jobs);
  if (jobs == 1 || tasks.size() <= 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) run_task(i);
  } else {
    auto& exec = ncc::Executor::instance();
    const auto lease = exec.lease(jobs);
    exec.parallel_for(lease, tasks.size(), run_task);
  }

  // Merge at task order — declarative order by construction.
  std::size_t idx = 0;
  for (const ScenarioSpec& spec : specs) {
    ScenarioReport sr;
    sr.name = spec.name;
    sr.description = spec.description;
    const auto& sweep = opt.n_override.empty() ? spec.n_sweep : opt.n_override;
    sr.runs.reserve(opt.algos.size() * sweep.size());
    for (std::size_t k = 0; k < opt.algos.size() * sweep.size(); ++k) {
      sr.runs.push_back(std::move(results[idx++]));
    }
    report.scenarios.push_back(std::move(sr));
  }
  return report;
}

}  // namespace dgr::scenario
