// dgr_bench: the repository benchmark — four fixed workloads, end-to-end
// and per-layer metrics, one command.
//
//   dgr_bench --workload NAME|all [--seed S] [--seconds T] [--json OUT]
//             [--trace SPANS.json] [--smoke]
//
// Workloads (names are permanent; README.md says why each was chosen):
//   implicit-regular    4-regular n=8192, NCC0, Algorithm 3, threads=4
//   powerlaw-explicit   power-law n=4096 dmax=256 a=2, NCC0, implicit +
//                       make_explicit, threads=1
//   connectivity-ncc1   zipf thresholds n=131072 rmax=16 a=2, NCC1,
//                       Theorem 17 + the max-flow referee, threads=1
//   serve-mixed         RealizationService (2 drivers), open-loop Poisson
//                       arrivals at 300 req/s, 75% permuted hot keys
//
// Method:
//   - --seed is the only source of input randomness. Inputs are generated
//     in this (parent) process before anything is timed.
//   - Every measurement runs in a forked child (fork_child.h), so wall time
//     and peak RSS (wait4's ru_maxrss) are per rep. Every rep of a
//     realization workload replays the same input, so rounds and messages
//     must repeat exactly — a difference fails the run.
//   - A workload measures for --seconds: reps are started while the next
//     one is expected to finish inside the budget (at least kMinReps).
//   - Without --trace the end-to-end metrics are measured with tracing off.
//     With --trace the run records spans {name, start, end, parent, rep}
//     around calls into each layer, switches on the engine's per-phase
//     timing, prints the per-layer metrics, and writes the spans to the
//     file. It also runs untraced reps, so the tracing overhead is measured.
//   - Every output is validated by the referee checks; the process exits 1
//     if any output fails validation.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fork_child.h"
#include "graph/generators.h"
#include "ncc/config.h"
#include "ncc/executor.h"
#include "ncc/network.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/validate.h"
#include "serve/service.h"
#include "util/rng.h"

namespace {

using dgr::bench::ChildResult;
using dgr::bench::run_in_child;

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kImplicit, kExplicit, kConnectivity, kServe };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t n;          // realization size (smoke_n under --smoke)
  std::size_t smoke_n;
  unsigned threads;       // Config::threads of every Network it runs
};

constexpr Workload kWorkloads[] = {
    {"implicit-regular", Kind::kImplicit, 8192, 256, 4},
    {"powerlaw-explicit", Kind::kExplicit, 4096, 256, 1},
    {"connectivity-ncc1", Kind::kConnectivity, 131072, 1024, 1},
    {"serve-mixed", Kind::kServe, 0, 0, 1},
};

constexpr int kMinReps = 3;          // untraced reps per measured run
constexpr int kSetupReps = 5;        // serve: service start + priming
constexpr double kServeRate = 300;   // req/s for the end-to-end serve metrics
constexpr double kHotShare = 0.75;   // hot-key share of serve requests
constexpr std::size_t kHotKeys = 32;
constexpr double kTimeoutS = 10;  // a slower response counts as failed
constexpr double kLadder[] = {200, 400, 600, 800};
constexpr double kLadderP99LimitMs = 100;

// Scope names whose rounds are reported as primitives.rounds.<scope>: the
// union over the four workloads, so every workload prints the same list.
constexpr const char* kScopes[] = {
    "path/undirect", "bbst/build",   "skiplinks/build",
    "sort",          "aggregate",    "broadcast",
    "range_cast",    "direct_exchange", "degree_realization",
    "connectivity_ncc1"};

// ---------------------------------------------------------------------------
// Child records: what one measurement reports back through the pipe.
// Text protocol, one item per line:
//   r <kind>                       starts a record (untraced|traced|t1|serve)
//   k <name> <value>               a scalar
//   s <name> <start> <end> <parent>   a span (ns; parent = index or -1)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int parent = -1;
};

struct Record {
  std::string kind;
  std::map<std::string, double> v;
  std::vector<Span> spans;

  double get(const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
  double span_s(const std::string& name) const {
    std::uint64_t ns = 0;
    for (const Span& s : spans)
      if (s.name == name) ns += s.end - s.start;
    return secs(ns);
  }
};

void serialize(const Record& r, std::string& out) {
  char buf[256];
  out += "r " + r.kind + "\n";
  for (const auto& [k, val] : r.v) {
    std::snprintf(buf, sizeof buf, "k %s %.17g\n", k.c_str(), val);
    out += buf;
  }
  for (const Span& s : r.spans) {
    std::snprintf(buf, sizeof buf, "s %s %llu %llu %d\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.start),
                  static_cast<unsigned long long>(s.end), s.parent);
    out += buf;
  }
}

std::vector<Record> parse_records(const std::string& text) {
  std::vector<Record> out;
  std::istringstream in(text);
  std::string tag;
  while (in >> tag) {
    if (tag == "r") {
      out.emplace_back();
      in >> out.back().kind;
    } else if (tag == "k" && !out.empty()) {
      std::string name;
      double val = 0;
      in >> name >> val;
      out.back().v[name] = val;
    } else if (tag == "s" && !out.empty()) {
      Span s;
      unsigned long long a = 0, b = 0;
      in >> s.name >> a >> b >> s.parent;
      s.start = a;
      s.end = b;
      out.back().spans.push_back(std::move(s));
    } else {
      std::string rest;
      std::getline(in, rest);
    }
  }
  return out;
}

/// In-memory span recorder; a disabled recorder reads no clocks.
class Spans {
 public:
  Spans(bool on, std::vector<Span>& out) : on_(on), out_(out) {}
  int open(const char* name, int parent) {
    if (!on_) return -1;
    out_.push_back(Span{name, mono_ns(), 0, parent});
    return static_cast<int>(out_.size()) - 1;
  }
  void close(int i) {
    if (i >= 0) out_[static_cast<std::size_t>(i)].end = mono_ns();
  }

 private:
  bool on_;
  std::vector<Span>& out_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& s, const char* name, int parent)
      : s_(s), i_(s.open(name, parent)) {}
  ~ScopedSpan() { s_.close(i_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& s_;
  int i_;
};

// ---------------------------------------------------------------------------
// One realization rep: Network construction, algorithm, validation.
// ---------------------------------------------------------------------------

/// Runs one rep of `kind` on `input` (degrees, or thresholds for
/// connectivity) and fills `rec`. Returns whether the output validated.
/// Traced reps decompose realize_degrees_implicit into its four public
/// calls (path, BBST, skip links, phase loop) so each gets a span; the
/// transcript is the same either way, which the caller checks.
bool realization_rep(Kind kind, const std::vector<std::uint64_t>& input,
                     std::uint64_t seed, unsigned threads, bool traced,
                     Record& rec) {
  namespace realize = dgr::realize;
  namespace prim = dgr::prim;
  Spans sp(traced, rec.spans);
  const auto ex0 = dgr::ncc::Executor::instance().stats();

  const std::uint64_t t0 = mono_ns();
  const int root = sp.open("rep", -1);
  dgr::ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  if (kind == Kind::kConnectivity)
    cfg.initial = dgr::ncc::InitialKnowledge::kClique;
  const int setup = sp.open("setup", root);
  dgr::ncc::Network net(input.size(), cfg);
  sp.close(setup);
  const std::uint64_t t1 = mono_ns();

  net.set_phase_timing(traced);
  const int alg = sp.open("algorithm", root);
  realize::ImplicitDegreeResult imp;
  realize::ExplicitDegreeResult exp;
  realize::ConnectivityResult con;
  bool realizable = false;
  if (kind == Kind::kConnectivity) {
    ScopedSpan g(sp, "connectivity", alg);
    con = realize::realize_connectivity_ncc1(net, input);
    realizable = con.realizable;
  } else {
    if (traced) {
      prim::PathOverlay path;
      prim::TreeOverlay tree;
      prim::SkipOverlay skip;
      {
        ScopedSpan g(sp, "path", alg);
        path = prim::undirect_initial_path(net);
      }
      {
        ScopedSpan g(sp, "bbst", alg);
        tree = prim::build_bbst(net, path);
      }
      {
        ScopedSpan g(sp, "skiplinks", alg);
        skip = prim::build_skiplinks(net, path);
      }
      ScopedSpan g(sp, "phase_loop", alg);
      imp = realize::realize_degrees_on_path(net, path, skip, tree, input,
                                             realize::DegreeMode::kExact);
    } else {
      imp = realize::realize_degrees_implicit(net, input,
                                              realize::DegreeMode::kExact);
    }
    realizable = imp.realizable;
    if (kind == Kind::kExplicit && realizable) {
      ScopedSpan g(sp, "explicit", alg);
      exp = realize::make_explicit(net, imp);
      realizable = exp.realizable;
    }
  }
  sp.close(alg);
  const std::uint64_t t2 = mono_ns();
  const dgr::ncc::NetStats st = net.stats();

  const int val = sp.open("validate", root);
  realize::Validation v = realize::Validation::fail("input reported unrealizable");
  if (realizable) {
    if (kind == Kind::kConnectivity) {
      v = realize::validate_connectivity_thresholds(net, input, con.stored,
                                                    seed);
    } else {
      v = realize::validate_degree_realization(net, input, imp.stored);
      if (v.ok && kind == Kind::kExplicit)
        v = realize::validate_explicit_adjacency(net, imp.stored,
                                                 exp.adjacency);
    }
  }
  sp.close(val);
  sp.close(root);
  const std::uint64_t t3 = mono_ns();
  const auto ex1 = dgr::ncc::Executor::instance().stats();

  auto& r = rec.v;
  r["setup_s"] = secs(t1 - t0);
  r["algo_s"] = secs(t2 - t1);
  r["validate_s"] = secs(t3 - t2);
  r["solve_s"] = secs(t3 - t0);
  r["rounds"] = static_cast<double>(st.rounds);
  r["messages"] = static_cast<double>(st.messages_sent);
  r["delivered"] = static_cast<double>(st.messages_delivered);
  r["bounced"] = static_cast<double>(st.messages_bounced);
  r["max_recv"] = static_cast<double>(st.max_recv_in_round);
  r["phases"] = static_cast<double>(kind == Kind::kConnectivity ? 0
                                                                : imp.phases);
  r["ns.body"] = static_cast<double>(st.phase_ns.body);
  r["ns.sort"] = static_cast<double>(st.phase_ns.sort);
  r["ns.rng"] = static_cast<double>(st.phase_ns.rng);
  r["ns.placement"] = static_cast<double>(st.phase_ns.placement);
  r["ns.learn"] = static_cast<double>(st.phase_ns.learn);
  for (const auto& [scope, rounds] : st.scope_rounds)
    r["scope." + scope] = static_cast<double>(rounds);
  r["exec.jobs"] = static_cast<double>(ex1.jobs - ex0.jobs);
  r["exec.tasks"] = static_cast<double>(ex1.tasks - ex0.tasks);
  r["exec.worker_tasks"] =
      static_cast<double>(ex1.worker_tasks - ex0.worker_tasks);
  if (!v.ok) std::fprintf(stderr, "dgr_bench: validation: %s\n",
                          v.message.c_str());
  return v.ok;
}

// ---------------------------------------------------------------------------
// serve-mixed: inputs, open-loop load generator, collector.
// ---------------------------------------------------------------------------

struct Arrival {
  std::uint64_t due_ns = 0;  // offset from the loop start
  dgr::serve::Request req;
  int hot = -1;              // index into the hot set, -1 = fresh key
};

struct ServeInput {
  std::vector<dgr::serve::Request> hot;
  std::vector<Arrival> main;                 // kServeRate trace
  std::vector<std::vector<Arrival>> ladder;  // one trace per kLadder rate
};

constexpr std::size_t kServeSizes[] = {64, 96, 128};

/// A gnp(n, 0.1) degree sequence under a request seed drawn from `seeds`.
dgr::serve::Request make_request(std::size_t n, dgr::Rng& degrees,
                                 dgr::Rng& seeds) {
  dgr::serve::Request r;
  r.degrees = dgr::graph::gnp_sequence(n, 0.1, degrees);
  r.seed = seeds();
  return r;
}

dgr::serve::Request fresh_request(dgr::Rng& rng, bool smoke) {
  const std::size_t n = smoke ? 32 : kServeSizes[rng.below(3)];
  return make_request(n, rng, rng);
}

std::vector<Arrival> make_trace(dgr::Rng& rng, double rate, double seconds,
                                const std::vector<dgr::serve::Request>& hot,
                                bool smoke) {
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;  // Poisson arrivals
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<std::uint64_t>(t * 1e9);
    if (rng.chance(kHotShare)) {
      a.hot = static_cast<int>(rng.below(hot.size()));
      a.req = hot[static_cast<std::size_t>(a.hot)];
      rng.shuffle(a.req.degrees);  // a permutation is the same request
    } else {
      a.req = fresh_request(rng, smoke);
    }
    out.push_back(std::move(a));
  }
  return out;
}

ServeInput make_serve_input(std::uint64_t seed, double seconds, bool traced,
                            bool smoke) {
  dgr::Rng rng(dgr::hash_mix(seed, 0x5e77e));
  ServeInput in;
  // The hot set has one fixed shape — sizes cycle through kServeSizes and
  // the degree sequences come from a fixed stream — so three quarters of
  // the traffic costs the same under every seed; the seed draws the
  // request seeds, the permutations, the arrivals and the fresh keys.
  dgr::Rng shape(0x407);
  const std::size_t hot_keys = smoke ? 8 : kHotKeys;
  for (std::size_t i = 0; i < hot_keys; ++i)
    in.hot.push_back(make_request(
        smoke ? 32 : kServeSizes[i % std::size(kServeSizes)], shape, rng));
  // The traced run splits its budget: half at kServeRate, half over the
  // ladder of offered rates.
  const double main_s = traced ? seconds / 2 : seconds;
  in.main = make_trace(rng, kServeRate, main_s, in.hot, smoke);
  if (traced) {
    const double step_s = seconds / 2 / std::size(kLadder);
    for (const double rate : kLadder)
      in.ladder.push_back(make_trace(rng, rate, step_s, in.hot, smoke));
  }
  return in;
}

using Result = dgr::serve::RealizationService::Result;

/// Submit the hot set one key at a time, waiting for each: the cache then
/// holds every hot key. (Submitting all at once lets the drivers' batch
/// claims split the work unevenly, which moved set-up time by ~40%.)
std::vector<Result> prime(dgr::serve::RealizationService& svc,
                          const std::vector<dgr::serve::Request>& hot) {
  std::vector<Result> out;
  for (const auto& r : hot) out.push_back(svc.submit(r).get());
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

struct LoopStats {
  std::vector<double> lat_ms, hot_ms, fresh_ms, late_ms, block_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   // wrong, unvalidated, or later than kTimeoutS
  std::uint64_t wrong = 0;    // answered, but not a validated correct answer
  std::uint64_t backlog = 0;  // requests not yet answered when the last was due
  double rounds_sum = 0;
};

/// Open loop: the calling thread submits each request at its due time
/// (sleeping, then spinning the last stretch so it is not late by a timer
/// tick); one collector thread polls the outstanding futures and stamps
/// each completion. Latency runs from the due time, so a stalled submit
/// charges every request queued behind it.
LoopStats run_open_loop(dgr::serve::RealizationService& svc,
                        std::vector<Arrival> trace,
                        const std::vector<Result>& hot_results) {
  const std::size_t n = trace.size();
  std::vector<std::uint64_t> due(n), done(n, 0);
  std::vector<Result> results(n);
  std::vector<int> hot(n);

  struct Pending {
    std::size_t i;
    std::future<Result> fut;
  };
  std::mutex mu;
  std::vector<Pending> handoff;  // guarded by mu
  bool submitting = true;        // guarded by mu
  const std::uint64_t base = mono_ns() + 5'000'000;
  const std::uint64_t last_due = base + (n ? trace.back().due_ns : 0);
  const std::uint64_t deadline =
      last_due + static_cast<std::uint64_t>(kTimeoutS * 1e9);

  std::thread collector([&] {
    std::vector<Pending> live;
    for (;;) {
      bool more = false;
      {
        std::scoped_lock lk(mu);
        for (auto& p : handoff) live.push_back(std::move(p));
        handoff.clear();
        more = submitting;
      }
      for (std::size_t j = 0; j < live.size();) {
        if (live[j].fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done[live[j].i] = mono_ns();
          try {
            results[live[j].i] = live[j].fut.get();
          } catch (...) {
            results[live[j].i] = nullptr;
          }
          live[j] = std::move(live.back());
          live.pop_back();
        } else {
          ++j;
        }
      }
      if (!more && live.empty()) break;
      if (mono_ns() > deadline) break;  // the rest count as failed
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  LoopStats s;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = base + trace[i].due_ns;
    hot[i] = trace[i].hot;
    const std::uint64_t spin_from = due[i] - std::min<std::uint64_t>(due[i], 300'000);
    const std::uint64_t now = mono_ns();
    if (now < spin_from)
      std::this_thread::sleep_for(std::chrono::nanoseconds(spin_from - now));
    while (mono_ns() < due[i]) {
    }
    const std::uint64_t t_submit = mono_ns();
    std::future<Result> fut = svc.submit(std::move(trace[i].req));
    const std::uint64_t t_back = mono_ns();
    s.late_ms.push_back(static_cast<double>(t_submit - due[i]) * 1e-6);
    s.block_ms.push_back(static_cast<double>(t_back - t_submit) * 1e-6);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      done[i] = t_back;  // a cache hit resolves inside submit()
      try {
        results[i] = fut.get();
      } catch (...) {
        results[i] = nullptr;
      }
    } else {
      std::scoped_lock lk(mu);
      handoff.push_back(Pending{i, std::move(fut)});
    }
  }
  {
    std::scoped_lock lk(mu);
    submitting = false;
  }
  collector.join();

  for (std::size_t i = 0; i < n; ++i) {
    ++s.attempted;
    const bool answered = done[i] != 0;
    const double ms = answered ? static_cast<double>(done[i] - due[i]) * 1e-6
                               : kTimeoutS * 1e3;
    if (!answered || done[i] > last_due) ++s.backlog;
    const Result& r = results[i];
    bool right = r && r->validated && r->realizable;
    if (right && hot[i] >= 0) {
      const Result& want = hot_results[static_cast<std::size_t>(hot[i])];
      right = r == want || *r == *want;  // a hit equals the primed answer
    }
    if (answered && !right) ++s.wrong;
    if (!answered || !right || ms > kTimeoutS * 1e3) {
      ++s.failed;
      continue;
    }
    s.rounds_sum += static_cast<double>(r->rounds);
    s.lat_ms.push_back(ms);
    (hot[i] >= 0 ? s.hot_ms : s.fresh_ms).push_back(ms);
  }
  return s;
}

/// The serve-mixed child: set-up reps and the open loop; when traced, also
/// the ladder of offered rates and the cold-path replay records.
bool serve_child(const ServeInput& in, unsigned net_threads, bool traced,
                 std::string& out) {
  dgr::serve::ServiceConfig cfg;
  cfg.drivers = 2;
  cfg.net_threads = net_threads;

  Record rec;
  rec.kind = "serve";
  std::vector<double> setups;
  std::unique_ptr<dgr::serve::RealizationService> svc;
  std::vector<Result> hot_results;
  bool ok = true;
  for (int i = 0; i < (traced ? 1 : kSetupReps); ++i) {
    svc.reset();
    const std::uint64_t t0 = mono_ns();
    svc = std::make_unique<dgr::serve::RealizationService>(cfg);
    hot_results = prime(*svc, in.hot);
    setups.push_back(secs(mono_ns() - t0));
  }
  for (const Result& r : hot_results) ok = ok && r && r->validated;

  const LoopStats s = run_open_loop(*svc, in.main, hot_results);
  const auto st = svc->stats();
  const auto cs = svc->cache_stats();
  auto& v = rec.v;
  v["setup_s"] = median(setups);
  v["solve_s"] = percentile(s.lat_ms, 0.50) * 1e-3;
  v["tail_s"] = percentile(s.lat_ms, 0.99) * 1e-3;
  v["rounds"] = s.lat_ms.empty() ? 0 : s.rounds_sum / static_cast<double>(s.lat_ms.size());
  v["attempted"] = static_cast<double>(s.attempted);
  v["failed"] = static_cast<double>(s.failed);
  v["serve.samples"] = static_cast<double>(s.lat_ms.size());
  v["serve.hot_ms_p50"] = percentile(s.hot_ms, 0.50);
  v["serve.hot_ms_p99"] = percentile(s.hot_ms, 0.99);
  v["serve.fresh_ms_p50"] = percentile(s.fresh_ms, 0.50);
  v["serve.fresh_ms_p99"] = percentile(s.fresh_ms, 0.99);
  v["serve.submit_block_ms_p99"] = percentile(s.block_ms, 0.99);
  v["loadgen.late_ms_p99"] = percentile(s.late_ms, 0.99);
  const double answered =
      static_cast<double>(st.submit_hits + st.run_hits + st.cold_runs);
  v["serve.hit_ratio"] =
      answered > 0 ? static_cast<double>(st.submit_hits + st.run_hits) / answered : 0;
  v["serve.mean_batch"] =
      st.batches ? static_cast<double>(st.batched_requests) / static_cast<double>(st.batches) : 0;
  v["serve.coalesced"] = static_cast<double>(st.coalesced);
  v["serve.admission_waits"] = static_cast<double>(st.admission_waits);
  v["serve.cache_evictions"] = static_cast<double>(cs.evictions);
  v["serve.cold_runs"] = static_cast<double>(st.cold_runs);
  v["serve.max_rps"] = 0;

  if (traced) {
    // Ladder steps above capacity may time out: that is the step's verdict
    // (it fails the rate), not a wrong answer. Wrong answers still fail.
    double max_rps = 0;
    for (std::size_t i = 0; i < in.ladder.size(); ++i) {
      const LoopStats l = run_open_loop(*svc, in.ladder[i], hot_results);
      const double p99 = percentile(l.lat_ms, 0.99);
      const double rate = kLadder[i];
      v["serve.p99_ms_at_" + std::to_string(static_cast<int>(rate))] = p99;
      if (l.failed == 0 && p99 <= kLadderP99LimitMs &&
          static_cast<double>(l.backlog) <= rate * 0.1)
        max_rps = rate;
      v["attempted"] += static_cast<double>(l.attempted);
      v["failed"] += static_cast<double>(l.wrong);
      ok = ok && l.wrong == 0;
    }
    v["serve.max_rps"] = max_rps;
  }
  svc.reset();

  if (traced) {
    // The cold path off the service, on the hot set: direct cold_run calls,
    // then replays through the same Network + Algorithm 3 + referee steps
    // for the engine-level numbers the service does not expose (untraced
    // and traced alternate per key, as the realization reps do).
    std::vector<double> cold_ms;
    for (const auto& req : in.hot) {
      const std::uint64_t t0 = mono_ns();
      const auto r = dgr::serve::RealizationService::cold_run(
          dgr::serve::key_of(req), net_threads);
      cold_ms.push_back(static_cast<double>(mono_ns() - t0) * 1e-6);
      ok = ok && r.validated;
    }
    v["serve.cold_run_ms"] = median(cold_ms);
    for (const auto& req : in.hot) {
      for (const bool t : {false, true}) {
        const dgr::serve::CacheKey key = dgr::serve::key_of(req);
        Record r;
        r.kind = t ? "traced" : "untraced";
        ok = realization_rep(Kind::kImplicit, key.degrees, key.seed,
                             net_threads, t, r) && ok;
        serialize(r, out);
      }
    }
  }
  serialize(rec, out);
  return ok && s.failed == 0;
}

// ---------------------------------------------------------------------------
// Parent side: run a workload, aggregate records into metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct WorkloadRun {
  const Workload* w = nullptr;
  std::vector<Record> records;
  double peak_rss_mib = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 25;  // BENCHMARK.json's run_seconds
  std::string json_path;
  std::string trace_path;
  bool smoke = false;
};

std::vector<std::uint64_t> make_realization_input(const Workload& w,
                                                  std::size_t n,
                                                  std::uint64_t seed) {
  dgr::Rng rng(dgr::hash_mix(seed, static_cast<std::uint64_t>(w.kind)));
  switch (w.kind) {
    case Kind::kImplicit:
      return dgr::graph::regular_sequence(n, 4);
    case Kind::kExplicit: {
      // One fixed power-law multiset for every seed: a fresh sample per
      // seed moves rounds by ~10% (the tail decides the phase count), which
      // would drown the changes the benchmark is there to see. The seed
      // decides which node holds which degree, and seeds the Network.
      dgr::Rng law(0x9041a3);
      auto d = dgr::graph::powerlaw_sequence(n, 256, 2.0, law);
      rng.shuffle(d);
      return d;
    }
    default:
      return dgr::graph::zipf_thresholds(n, 16, 2.0, rng);
  }
}

/// Runs one child and folds its records into `run`; returns whether the
/// child's outputs validated. `wall` receives the child's wall time.
template <typename Body>
bool run_child(WorkloadRun& run, Body&& body, double& wall) {
  const std::uint64_t t0 = mono_ns();
  ChildResult c = run_in_child(std::forward<Body>(body));
  wall = secs(mono_ns() - t0);
  run.peak_rss_mib = std::max(run.peak_rss_mib, c.peak_rss_mib);
  if (!c.ok) {
    run.correct = false;
    std::fprintf(stderr, "dgr_bench: %s: %s\n", run.w->name,
                 c.failure.c_str());
  }
  for (Record& r : parse_records(c.out)) run.records.push_back(std::move(r));
  return c.ok;
}

void run_realization(WorkloadRun& run, const Options& opt) {
  const Workload& w = *run.w;
  const std::size_t n = opt.smoke ? w.smoke_n : w.n;
  const std::vector<std::uint64_t> input =
      make_realization_input(w, n, opt.seed);
  const bool traced = !opt.trace_path.empty();

  const auto rep = [&](const char* kind, bool t, unsigned threads) {
    ++run.attempted;
    const std::size_t before = run.records.size();
    double wall = 0;
    const bool ok = run_child(
        run,
        [&](std::string& out) {
          Record r;
          r.kind = kind;
          const bool valid =
              realization_rep(w.kind, input, opt.seed, threads, t, r);
          serialize(r, out);
          return valid;
        },
        wall);
    if (!ok) ++run.failed;
    if (run.records.size() > before)
      std::fprintf(stderr, "dgr_bench: %s %s rep: solve %.4f s, algorithm %.4f s\n",
                   w.name, kind, run.records.back().get("solve_s"),
                   run.records.back().get("algo_s"));
    return wall;
  };

  const std::uint64_t t0 = mono_ns();
  const auto more = [&](int done, int min_reps, double last) {
    if (opt.smoke) return done < min_reps;
    return done < min_reps || secs(mono_ns() - t0) + last <= opt.seconds;
  };
  double last = 0;
  if (!traced) {
    for (int i = 0; more(i, opt.smoke ? 1 : kMinReps, last); ++i)
      last = rep("untraced", false, w.threads);
    return;
  }
  // Traced run: untraced and traced reps alternate (the untraced ones are
  // the baseline for the tracing overhead, so host drift hits both alike),
  // plus one traced threads=1 rep when the workload is parallel.
  for (int i = 0; more(i, 4, last); ++i)
    last = i % 2 ? rep("traced", true, w.threads)
                 : rep("untraced", false, w.threads);
  if (w.threads > 1) rep("t1", true, 1);
}

void run_serve(WorkloadRun& run, const Options& opt) {
  const bool traced = !opt.trace_path.empty();
  const double seconds = opt.smoke ? 2 : opt.seconds;
  const ServeInput in = make_serve_input(opt.seed, seconds, traced, opt.smoke);
  double wall = 0;
  const bool ok = run_child(
      run,
      [&](std::string& out) {
        return serve_child(in, run.w->threads, traced, out);
      },
      wall);
  for (const Record& r : run.records) {
    if (r.kind != "serve") continue;
    run.attempted += static_cast<std::uint64_t>(r.get("attempted"));
    run.failed += static_cast<std::uint64_t>(r.get("failed"));
  }
  if (run.attempted == 0) run.attempted = 1;  // the child itself
  if (!ok && run.failed == 0) run.failed = 1;
}

std::vector<const Record*> of_kind(const WorkloadRun& run, const char* kind) {
  std::vector<const Record*> out;
  for (const Record& r : run.records)
    if (r.kind == kind) out.push_back(&r);
  return out;
}

template <typename F>
double median_of(const std::vector<const Record*>& recs, F&& f) {
  std::vector<double> v;
  for (const Record* r : recs) v.push_back(f(*r));
  return median(v);
}

double engine_s(const Record& r) {
  return (r.get("ns.body") + r.get("ns.sort") + r.get("ns.rng") +
          r.get("ns.placement") + r.get("ns.learn")) *
         1e-9;
}

double msgs_per_s(const Record& r) {
  return r.get("algo_s") > 0 ? r.get("messages") / r.get("algo_s") : 0;
}

/// Exact counters must repeat: same input, same seed => same transcript,
/// traced or not, at any thread count.
bool transcripts_repeat(const WorkloadRun& run) {
  const Record* first = nullptr;
  for (const Record& r : run.records) {
    if (r.kind == "serve") continue;
    if (!first) {
      first = &r;
    } else if (r.get("rounds") != first->get("rounds") ||
               r.get("messages") != first->get("messages")) {
      std::fprintf(stderr,
                   "dgr_bench: %s: transcript differs between reps "
                   "(rounds %.0f vs %.0f, messages %.0f vs %.0f)\n",
                   run.w->name, r.get("rounds"), first->get("rounds"),
                   r.get("messages"), first->get("messages"));
      return false;
    }
  }
  return true;
}

/// Serve replays are one record per key: the traced replay of key i must
/// repeat the untraced replay of key i exactly.
bool replays_repeat(const WorkloadRun& run) {
  const auto u = of_kind(run, "untraced");
  const auto t = of_kind(run, "traced");
  for (std::size_t i = 0; i < t.size() && i < u.size(); ++i)
    if (t[i]->get("rounds") != u[i]->get("rounds") ||
        t[i]->get("messages") != u[i]->get("messages"))
      return false;
  return true;
}

/// The serve-mixed latency split (milliseconds) and its sample count,
/// printed with either set.
void serve_latency_metrics(WorkloadRun& run) {
  for (const Record* r : of_kind(run, "serve")) {
    for (const auto& [k, val] : r->v)
      if (k.find("_ms") != std::string::npos)
        run.metrics.push_back({k, val, "ms"});
    run.metrics.push_back({"serve.samples", r->get("serve.samples"), "count"});
  }
}

/// The slowest rep, or the p99 request latency for serve-mixed.
double tail_s(const WorkloadRun& run, const char* kind) {
  const auto serve = of_kind(run, "serve");
  if (!serve.empty()) return serve.front()->get("tail_s");
  double worst = 0;
  for (const Record* r : of_kind(run, kind))
    worst = std::max(worst, r->get("solve_s"));
  return worst;
}

void end_to_end_metrics(WorkloadRun& run) {
  auto& m = run.metrics;
  const auto untraced = of_kind(run, "untraced");
  const auto serve = of_kind(run, "serve");
  const auto med = [&](const char* k) {
    return median_of(untraced, [k](const Record& r) { return r.get(k); });
  };
  if (run.w->kind == Kind::kServe) {
    if (serve.empty()) return;
    const Record& s = *serve.front();
    m.push_back({"setup_s", s.get("setup_s"), "s"});
    m.push_back({"solve_s", s.get("solve_s"), "s"});
    m.push_back({"rounds", s.get("rounds"), "count"});
  } else {
    if (untraced.empty()) return;
    m.push_back({"setup_s", med("setup_s"), "s"});
    m.push_back({"solve_s", med("solve_s"), "s"});
    m.push_back({"rounds", untraced.front()->get("rounds"), "count"});
    m.push_back({"messages", untraced.front()->get("messages"), "count"});
    m.push_back({"sim_msgs_per_s", median_of(untraced, msgs_per_s), "1/s"});
  }
  m.push_back({"peak_rss_mib", run.peak_rss_mib, "MiB"});
  m.push_back({"tail_s", tail_s(run, "untraced"), "s"});
  m.push_back({"fail_frac",
               static_cast<double>(run.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, run.attempted)),
               "frac"});
  serve_latency_metrics(run);
}

void per_layer_metrics(WorkloadRun& run) {
  auto& m = run.metrics;
  const auto traced = of_kind(run, "traced");
  const auto untraced = of_kind(run, "untraced");
  if (traced.empty()) return;
  const auto med = [&](auto&& f) { return median_of(traced, f); };
  const auto get = [](std::string k) {
    return [k = std::move(k)](const Record& r) { return r.get(k); };
  };
  const auto span = [](const char* k) {
    return [k](const Record& r) { return r.span_s(k); };
  };
  const auto frac = [](const char* k) {
    return [k](const Record& r) {
      const double solve = r.span_s("rep");
      return solve > 0 ? r.span_s(k) / solve : 0;
    };
  };

  // Engine (ncc): per-phase wall time, traffic and its fate.
  m.push_back({"ncc.body_s", med(get("ns.body")) * 1e-9, "s"});
  m.push_back({"ncc.sort_s", med(get("ns.sort")) * 1e-9, "s"});
  m.push_back({"ncc.rng_s", med(get("ns.rng")) * 1e-9, "s"});
  m.push_back({"ncc.placement_s", med(get("ns.placement")) * 1e-9, "s"});
  m.push_back({"ncc.phases_s", med(engine_s), "s"});
  m.push_back({"ncc.learn_frac", med([](const Record& r) {
                 const double e = engine_s(r);
                 return e > 0 ? r.get("ns.learn") * 1e-9 / e : 0;
               }), "frac"});
  m.push_back({"ncc.messages_sent", med(get("messages")), "count"});
  m.push_back({"ncc.messages_delivered", med(get("delivered")), "count"});
  m.push_back({"ncc.messages_bounced", med(get("bounced")), "count"});
  m.push_back({"ncc.delivery_ratio", med([](const Record& r) {
                 return r.get("messages") > 0
                            ? r.get("delivered") / r.get("messages")
                            : 0;
               }), "frac"});
  m.push_back({"ncc.max_recv_in_round", med(get("max_recv")), "count"});
  m.push_back({"ncc.msgs_per_round", med([](const Record& r) {
                 return r.get("rounds") > 0
                            ? r.get("messages") / r.get("rounds")
                            : 0;
               }), "count"});
  m.push_back({"ncc.msgs_per_s", med(msgs_per_s), "1/s"});

  // Executor.
  m.push_back({"executor.jobs", med(get("exec.jobs")), "count"});
  m.push_back({"executor.tasks", med(get("exec.tasks")), "count"});
  m.push_back({"executor.worker_share", med([](const Record& r) {
                 return r.get("exec.tasks") > 0
                            ? r.get("exec.worker_tasks") / r.get("exec.tasks")
                            : 0;
               }), "frac"});
  const auto t1 = of_kind(run, "t1");
  const double traced_solve = med(span("rep"));
  m.push_back({"executor.speedup_vs_t1",
               t1.empty() ? 1.0
                          : median_of(t1, span("rep")) / traced_solve,
               "x"});

  // Primitives: share of the traced solve time, and rounds per scope.
  m.push_back({"primitives.path_frac", med(frac("path")), "frac"});
  m.push_back({"primitives.bbst_frac", med(frac("bbst")), "frac"});
  m.push_back({"primitives.skiplinks_frac", med(frac("skiplinks")), "frac"});
  for (const char* scope : kScopes) {
    std::string name = std::string("primitives.rounds.") + scope;
    std::replace(name.begin(), name.end(), '/', '.');
    m.push_back({name, med(get(std::string("scope.") + scope)), "count"});
  }

  // Realization: the algorithm span, its split, and what lies outside the
  // engine phases (bookkeeping in realization and primitive code).
  m.push_back({"realization.setup_s", med(span("setup")), "s"});
  m.push_back({"realization.algorithm_s", med(span("algorithm")), "s"});
  m.push_back({"realization.self_s", med([](const Record& r) {
                 return r.span_s("algorithm") - engine_s(r);
               }), "s"});
  m.push_back({"realization.validate_s", med(span("validate")), "s"});
  m.push_back({"realization.phase_loop_frac", med(frac("phase_loop")), "frac"});
  m.push_back({"realization.explicit_frac", med(frac("explicit")), "frac"});
  m.push_back({"realization.connectivity_frac", med(frac("connectivity")), "frac"});
  m.push_back({"realization.phases", med(get("phases")), "count"});

  // Serve (zero on the realization workloads: they have no service).
  const auto serve = of_kind(run, "serve");
  const Record none;
  const Record& s = serve.empty() ? none : *serve.front();
  constexpr std::pair<const char*, const char*> kServeLayer[] = {
      {"serve.hit_ratio", "frac"},        {"serve.mean_batch", "count"},
      {"serve.coalesced", "count"},       {"serve.admission_waits", "count"},
      {"serve.cache_evictions", "count"}, {"serve.cold_runs", "count"},
      {"serve.max_rps", "1/s"}};
  for (const auto& [k, unit] : kServeLayer) m.push_back({k, s.get(k), unit});
  serve_latency_metrics(run);

  // Trace validity: spans must account for the solve time, and the cost
  // of tracing itself is reported.
  m.push_back({"trace.solve_s", traced_solve, "s"});
  m.push_back({"tail_s", tail_s(run, "traced"), "s"});
  m.push_back({"trace.span_coverage", med([](const Record& r) {
                 const double solve = r.span_s("rep");
                 return solve > 0 ? (r.span_s("setup") + r.span_s("algorithm") +
                                     r.span_s("validate")) / solve
                                  : 0;
               }), "frac"});
  const double untraced_solve =
      median_of(untraced, [](const Record& r) { return r.get("solve_s"); });
  m.push_back({"trace.overhead_frac",
               untraced_solve > 0 ? traced_solve / untraced_solve - 1 : 0,
               "frac"});
}

WorkloadRun run_workload(const Workload& w, const Options& opt) {
  WorkloadRun run;
  run.w = &w;
  if (w.kind == Kind::kServe) {
    run_serve(run, opt);
    if (!replays_repeat(run)) {
      std::fprintf(stderr, "dgr_bench: serve-mixed: replay transcript differs\n");
      run.correct = false;
    }
  } else {
    run_realization(run, opt);
    if (!transcripts_repeat(run)) run.correct = false;
  }
  if (run.failed > 0) run.correct = false;
  if (opt.trace_path.empty()) {
    end_to_end_metrics(run);
  } else {
    per_layer_metrics(run);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void print_run(const WorkloadRun& run) {
  std::printf("dgr_bench: %s attempted=%llu failed=%llu correct=%s\n",
              run.w->name, static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              run.correct ? "true" : "false");
  for (const Metric& m : run.metrics)
    std::printf("  %-40s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::fflush(stdout);
}

bool write_json(const std::string& path, const Options& opt,
                const std::vector<WorkloadRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"generated_by\": \"dgr_bench\", \"seed\": %llu, "
               "\"seconds\": %.17g, \"traced\": %s, \"smoke\": %s, "
               "\"cores\": %u, \"workloads\": [",
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace_path.empty() ? "false" : "true",
               opt.smoke ? "true" : "false",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& r = runs[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"threads\": %u, \"attempted\": "
                 "%llu, \"failed\": %llu, \"correct\": %s, \"metrics\": {",
                 i ? "," : "", r.w->name, r.w->threads,
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed),
                 r.correct ? "true" : "false");
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   j ? "," : "", m.name.c_str(),
                   std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// Spans of every rep as one JSON array; times are seconds from the first
/// span, parents index into the array.
bool write_spans(const std::string& path,
                 const std::vector<WorkloadRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& run : runs)
    for (const auto& rec : run.records)
      for (const auto& s : rec.spans) origin = std::min(origin, s.start);
  std::fprintf(f, "[");
  std::size_t index = 0;
  bool first = true;
  for (const auto& run : runs) {
    int rep = 0;
    for (const auto& rec : run.records) {
      const std::size_t base = index;
      for (const auto& s : rec.spans) {
        std::fprintf(
            f,
            "%s\n{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
            "\"parent\": %lld, \"rep\": %d, \"workload\": \"%s\", "
            "\"record\": \"%s\"}",
            first ? "" : ",", s.name.c_str(), secs(s.start - origin),
            secs(s.end - origin),
            s.parent < 0 ? -1LL
                         : static_cast<long long>(base + static_cast<std::size_t>(s.parent)),
            rep, run.w->name, rec.kind.c_str());
        first = false;
        ++index;
      }
      if (!rec.spans.empty()) ++rep;
    }
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME|all [--seed S] [--seconds T]\n"
               "          [--json OUT] [--trace SPANS.json] [--smoke]\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_and_exit(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = need(i);
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(need(i), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(need(i), nullptr);
    } else if (a == "--json") {
      opt.json_path = need(i);
    } else if (a == "--trace") {
      opt.trace_path = need(i);
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (!have_workload && !opt.smoke) usage_and_exit(argv[0]);
  if (!(opt.seconds > 0)) usage_and_exit(argv[0]);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (opt.workload == "all" || opt.workload == w.name) selected.push_back(&w);
  if (selected.empty()) usage_and_exit(argv[0]);

  std::vector<WorkloadRun> runs;
  bool correct = true;
  for (const Workload* w : selected) {
    runs.push_back(run_workload(*w, opt));
    print_run(runs.back());
    correct = correct && runs.back().correct;
  }
  if (!opt.json_path.empty() && !write_json(opt.json_path, opt, runs)) {
    std::fprintf(stderr, "dgr_bench: cannot write %s\n", opt.json_path.c_str());
    return 2;
  }
  if (!opt.trace_path.empty() && !write_spans(opt.trace_path, runs)) {
    std::fprintf(stderr, "dgr_bench: cannot write %s\n",
                 opt.trace_path.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}
