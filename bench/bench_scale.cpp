// bench_scale: the committed million-node trajectory.
//
// A plain-main driver (no Google Benchmark — one iteration per point is
// the measurement) that runs each of the five realization algorithms at a
// sweep of n up to 10^6+, validates every output with the referee checks,
// and emits a JSON report (committed as BENCH_scale.json).
//
// Every (algorithm, n) point runs in its own forked child
// (dgr_bench/fork_child.h, the repository benchmark's measurement path):
// the child reports wall time, engine transcript counters, whether the
// output validated and any failure reason, and the entry's peak RSS is
// that child's own ru_maxrss. Nothing an earlier point allocated can raise
// a later point's reading, and a point that crashes or is killed becomes
// a failed entry instead of ending the sweep.
//
// Instances are chosen so traffic is O(n) at every size — the regime the
// O(traffic)-memory datapath is built for:
//   approx        4-uniform request, NCC1 local-pick envelope
//   implicit      4-regular exact realization, NCC0
//   explicit      4-regular + full explicitization, NCC0
//   tree          path degree sequence (max-diameter caterpillar), NCC0
//   connectivity  rho = 2 everywhere, NCC1 hub construction
//
// Budget flags make the same binary the CI scale-smoke gate:
//   --rss-budget-mb M    each point's child runs under an address-space
//                        limit of M MiB plus a fixed headroom, so a point
//                        that outgrows the budget stops there as a failed
//                        entry instead of running to completion; it, or a
//                        completed entry whose peak RSS exceeds M MiB,
//                        fails the process (exit 1) after the JSON is out
//                        and skips that algorithm's larger sizes
//   --time-budget-s S    each point's child arms an S-second real-time
//                        timer (setitimer), so a point still running
//                        after S seconds is stopped there; it becomes a
//                        {"status":"skipped"} entry whose reason names the
//                        time budget (with the wall time it ran), and that
//                        algorithm's larger sizes are skipped with the
//                        reason too, instead of silently missing from the
//                        sweep. Skips leave the exit status alone
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <vector>

#include "fork_child.h"
#include "ncc/config.h"
#include "ncc/network.h"
#include "occupancy.h"
#include "realization/approx_degree.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/implicit_degree.h"
#include "realization/tree_realization.h"
#include "realization/validate.h"
#include "util/check.h"

namespace {

struct Options {
  std::vector<std::size_t> sizes{4096, 16384, 65536, 262144, 1048576};
  std::vector<std::string> algos{"approx", "implicit", "explicit", "tree",
                                 "connectivity"};
  std::string json_path;  // empty = stdout
  std::uint64_t seed = 1;
  unsigned threads = 1;
  double rss_budget_mb = 0;  // 0 = off
  double time_budget_s = 0;  // 0 = off
};

struct Entry {
  std::string algo;
  std::size_t n = 0;
  std::string status;  // "ok", "failed", or "skipped"
  std::string reason;  // skip/fail cause ("" when ok)
  double wall_s = 0;
  std::size_t peak_rss = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  bool validated = false;
  bool over_budget = false;  // ran out of the --rss-budget-mb limit
  bool timed_out = false;    // stopped by the --time-budget-s timer
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--n LIST] [--algos LIST] [--json FILE] [--seed S]\n"
      "          [--threads T] [--rss-budget-mb M] [--time-budget-s S]\n"
      "  --n       comma-separated sizes (default "
      "4096,16384,65536,262144,1048576)\n"
      "  --algos   subset of approx,implicit,explicit,tree,connectivity\n"
      "  --json    output file (default stdout)\n",
      argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_and_exit(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--n") {
      opt.sizes.clear();
      for (const auto& tok : split_csv(need(i)))
        opt.sizes.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    } else if (a == "--algos") {
      opt.algos = split_csv(need(i));
    } else if (a == "--json") {
      opt.json_path = need(i);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(need(i), nullptr, 10);
    } else if (a == "--threads") {
      opt.threads = static_cast<unsigned>(std::strtoul(need(i), nullptr, 10));
    } else if (a == "--rss-budget-mb") {
      opt.rss_budget_mb = std::strtod(need(i), nullptr);
    } else if (a == "--time-budget-s") {
      opt.time_budget_s = std::strtod(need(i), nullptr);
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.sizes.empty() || opt.algos.empty()) usage_and_exit(argv[0]);
  std::sort(opt.sizes.begin(), opt.sizes.end());
  return opt;
}

dgr::ncc::Network make_net(std::size_t n, const Options& opt, bool clique) {
  dgr::ncc::Config cfg;
  cfg.seed = opt.seed;
  cfg.threads = opt.threads;
  if (clique) cfg.initial = dgr::ncc::InitialKnowledge::kClique;
  return dgr::ncc::Network(n, cfg);
}

/// The body of one point, run inside the child: construct, realize,
/// validate. Fills counters and the validation outcome; throws on an
/// internal failure (a CheckError, or bad_alloc).
void measure(Entry& e, const Options& opt) {
  namespace realize = dgr::realize;
  const std::string& algo = e.algo;
  const std::size_t n = e.n;

  realize::Validation v = realize::Validation::fail("unknown algorithm");
  std::uint64_t rounds = 0, messages = 0;
  if (algo == "approx") {
    const std::vector<std::uint64_t> deg(n, 4);
    auto net = make_net(n, opt, /*clique=*/true);
    const auto r = realize::realize_upper_envelope_ncc1(net, deg);
    DGR_CHECK_MSG(r.realizable, "approx reported unrealizable");
    rounds = net.stats().rounds;
    messages = net.stats().messages_sent;
    v = realize::validate_upper_envelope(net, deg, r.stored);
  } else if (algo == "implicit" || algo == "explicit") {
    const std::vector<std::uint64_t> deg(n, 4);
    auto net = make_net(n, opt, /*clique=*/false);
    auto r = realize::realize_degrees_implicit(net, deg,
                                               realize::DegreeMode::kExact);
    DGR_CHECK_MSG(r.realizable, "4-regular reported unrealizable");
    if (algo == "explicit") {
      const auto x = realize::make_explicit(net, r);
      rounds = net.stats().rounds;
      messages = net.stats().messages_sent;
      v = realize::validate_explicit_adjacency(net, r.stored, x.adjacency);
    } else {
      rounds = net.stats().rounds;
      messages = net.stats().messages_sent;
      v = realize::validate_degree_realization(net, deg, r.stored);
    }
  } else if (algo == "tree") {
    // Path degrees: the extreme caterpillar, sum = 2(n-1).
    std::vector<std::uint64_t> deg(n, 2);
    deg[0] = deg[n - 1] = 1;
    auto net = make_net(n, opt, /*clique=*/false);
    const auto r = realize::realize_tree_caterpillar(net, deg);
    DGR_CHECK_MSG(r.realizable, "tree degrees reported unrealizable");
    rounds = net.stats().rounds;
    messages = net.stats().messages_sent;
    v = realize::validate_tree_realization(net, deg, r.stored);
  } else if (algo == "connectivity") {
    const std::vector<std::uint64_t> rho(n, 2);
    auto net = make_net(n, opt, /*clique=*/true);
    const auto r = realize::realize_connectivity_ncc1(net, rho);
    DGR_CHECK_MSG(r.realizable, "connectivity reported unrealizable");
    rounds = net.stats().rounds;
    messages = net.stats().messages_sent;
    v = realize::validate_connectivity_thresholds(net, rho, r.stored,
                                                  opt.seed);
  } else {
    DGR_CHECK_MSG(false, "unknown algorithm '" << algo << "'");
  }

  e.rounds = rounds;
  e.messages = messages;
  e.validated = v.ok;
  if (!v.ok) e.reason = v.message;
}

/// Address-space headroom above --rss-budget-mb, in MiB. Measured as
/// VmPeak - VmHWM at the end of a point's child (glibc, x86-64, 8 MiB
/// default thread stacks): 4 MiB at threads = 1 for all five algorithms
/// from n = 4096 to 2^20 (the mapped binary and libraries), and 72 MiB more
/// per executor worker (its stack plus its 64 MiB malloc arena
/// reservation): 505 MiB at threads = 8.
constexpr double kHeadroomBaseMiB = 16;
constexpr double kHeadroomPerWorkerMiB = 72;

double address_space_limit_mib(const Options& opt) {
  const unsigned workers = opt.threads > 1 ? opt.threads - 1 : 0;
  return opt.rss_budget_mb + kHeadroomBaseMiB +
         kHeadroomPerWorkerMiB * workers;
}

/// One measured point in its own forked child. The child writes
/// "wall_s rounds messages validated over_budget" on one line and the
/// failure reason, if any, after it; an exception is caught there and
/// recorded as a failed entry. A child that dies without reporting becomes
/// a failed entry with the way it died as the reason.
Entry run_point(const std::string& algo, std::size_t n, const Options& opt) {
  Entry e;
  e.algo = algo;
  e.n = n;
  const auto started = std::chrono::steady_clock::now();
  const dgr::bench::ChildResult c =
      dgr::bench::run_in_child([&](std::string& out) {
        if (opt.rss_budget_mb > 0) {
          const auto bytes = static_cast<rlim_t>(
              address_space_limit_mib(opt) * 1024.0 * 1024.0);
          const struct rlimit lim{bytes, bytes};
          const int rc = setrlimit(RLIMIT_AS, &lim);
          DGR_CHECK_MSG(rc == 0, "setrlimit(RLIMIT_AS) failed");
        }
        if (opt.time_budget_s > 0) {
          // SIGALRM's default action ends the child where it stands; the
          // parent reads the signal and records the stop. A zero it_value
          // would disarm the timer, so any budget arms at least 1 us.
          itimerval timer{};
          const double whole = static_cast<double>(
              static_cast<long>(opt.time_budget_s));
          timer.it_value.tv_sec = static_cast<time_t>(whole);
          timer.it_value.tv_usec =
              static_cast<suseconds_t>((opt.time_budget_s - whole) * 1e6);
          if (timer.it_value.tv_sec == 0 && timer.it_value.tv_usec == 0) {
            timer.it_value.tv_usec = 1;
          }
          const int rc = setitimer(ITIMER_REAL, &timer, nullptr);
          DGR_CHECK_MSG(rc == 0, "setitimer(ITIMER_REAL) failed");
        }
        const auto t0 = std::chrono::steady_clock::now();
        try {
          measure(e, opt);
        } catch (const std::bad_alloc&) {
          e.over_budget = opt.rss_budget_mb > 0;
          char why[128];
          std::snprintf(why, sizeof why,
                        "rss budget: out of memory under the %.0f MiB "
                        "budget (address-space limit %.0f MiB)",
                        opt.rss_budget_mb, address_space_limit_mib(opt));
          e.reason = e.over_budget ? why : "out of memory (std::bad_alloc)";
        } catch (const std::exception& ex) {
          e.reason = ex.what();
        }
        if (opt.time_budget_s > 0) {
          // The point is over: disarm the timer so reporting it cannot be
          // cut short.
          const itimerval off{};
          setitimer(ITIMER_REAL, &off, nullptr);
        }
        e.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        char line[96];
        std::snprintf(line, sizeof line, "%.9f %llu %llu %d %d\n", e.wall_s,
                      static_cast<unsigned long long>(e.rounds),
                      static_cast<unsigned long long>(e.messages),
                      e.validated ? 1 : 0, e.over_budget ? 1 : 0);
        out = line;
        out += e.reason;
        return e.validated;
      });
  e.peak_rss = static_cast<std::size_t>(c.peak_rss_mib * 1024.0 * 1024.0);
  unsigned long long rounds = 0, messages = 0;
  int validated = 0, over_budget = 0;
  const std::size_t eol = c.out.find('\n');
  if (eol != std::string::npos &&
      std::sscanf(c.out.c_str(), "%lf %llu %llu %d %d", &e.wall_s, &rounds,
                  &messages, &validated, &over_budget) == 5) {
    e.rounds = rounds;
    e.messages = messages;
    e.validated = validated != 0;
    e.over_budget = over_budget != 0;
    e.reason = c.out.substr(eol + 1);
  } else {
    e.reason = c.failure.empty() ? "child reported nothing" : c.failure;
  }
  e.status = e.validated ? "ok" : "failed";
  if (opt.time_budget_s > 0 &&
      c.failure == "child killed by signal " + std::to_string(SIGALRM)) {
    // The point ran into its timer: the wall time is the parent's view,
    // fork to reap.
    e.timed_out = true;
    e.status = "skipped";
    e.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count();
    char why[160];
    std::snprintf(why, sizeof why,
                  "time budget: n=%zu stopped after %.3f s by the %.3f s "
                  "budget",
                  n, e.wall_s, opt.time_budget_s);
    e.reason = why;
  }
  return e;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void emit(std::FILE* f, const Options& opt,
          const std::vector<Entry>& entries) {
  std::fprintf(f,
               "{\n  \"generated_by\": \"bench_scale\",\n"
               "  \"seed\": %llu,\n  \"threads\": %u,\n"
               "  \"sparse_rounds\": true,\n  \"entries\": [\n",
               static_cast<unsigned long long>(opt.seed), opt.threads);
  // Occupancy guard: every entry records the machine's cores and whether
  // this run's thread demand oversubscribed them, so a committed baseline
  // from a degraded run is self-describing.
  const unsigned cores = dgr::bench::hardware_cores();
  const bool over = cores != 0 && opt.threads > cores;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"algo\": \"%s\", \"n\": %zu, \"cores\": %u, "
                 "\"oversubscribed\": %d, \"status\": \"%s\"",
                 e.algo.c_str(), e.n, cores, over ? 1 : 0, e.status.c_str());
    if (e.status == "skipped") {
      // A point stopped by the time budget ran: its wall time is kept.
      if (e.timed_out) std::fprintf(f, ", \"wall_s\": %.3f", e.wall_s);
      std::fprintf(f, ", \"reason\": \"%s\"}", json_escape(e.reason).c_str());
    } else {
      std::fprintf(f,
                   ", \"wall_s\": %.3f, \"peak_rss_bytes\": %zu, "
                   "\"rounds\": %llu, \"messages\": %llu, "
                   "\"validated\": %s",
                   e.wall_s, e.peak_rss,
                   static_cast<unsigned long long>(e.rounds),
                   static_cast<unsigned long long>(e.messages),
                   e.validated ? "true" : "false");
      if (!e.reason.empty())
        std::fprintf(f, ", \"reason\": \"%s\"", json_escape(e.reason).c_str());
      std::fputc('}', f);
    }
    std::fprintf(f, "%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The parent starts no threads and builds no Network: every point forks
  // from this single-threaded process.
  const Options opt = parse(argc, argv);
  std::vector<Entry> entries;
  bool budget_breached = false;
  bool any_failed = false;

  for (const std::string& algo : opt.algos) {
    // Sizes run ascending per algorithm so a budget stop at one n can
    // skip the rest of that algorithm's sweep with an explanation.
    std::string skip_reason;
    for (const std::size_t n : opt.sizes) {
      if (!skip_reason.empty()) {
        Entry e;
        e.algo = algo;
        e.n = n;
        e.status = "skipped";
        e.reason = skip_reason;
        entries.push_back(std::move(e));
        continue;
      }
      const std::string label =
          "bench_scale " + algo + " n=" + std::to_string(n);
      dgr::bench::warn_if_oversubscribed(opt.threads, label.c_str());
      Entry e = run_point(algo, n, opt);
      std::fprintf(stderr,
                   "bench_scale: %-12s n=%-8zu %-7s wall=%.3fs "
                   "peak_rss=%.1fMiB rounds=%llu validated=%d\n",
                   e.algo.c_str(), e.n, e.status.c_str(), e.wall_s,
                   static_cast<double>(e.peak_rss) / (1024.0 * 1024.0),
                   static_cast<unsigned long long>(e.rounds),
                   e.validated ? 1 : 0);
      if (e.status == "failed") any_failed = true;
      if (e.over_budget) {
        budget_breached = true;
        skip_reason = "rss budget: n=" + std::to_string(n) +
                      " ran out of memory under the budget";
      } else if (opt.rss_budget_mb > 0 && e.status == "ok" &&
                 static_cast<double>(e.peak_rss) >
                     opt.rss_budget_mb * 1024.0 * 1024.0) {
        budget_breached = true;
        skip_reason = "rss budget: n=" + std::to_string(n) + " peaked at " +
                      std::to_string(e.peak_rss / (1024 * 1024)) +
                      " MiB > budget";
      }
      if (e.timed_out) {
        skip_reason = "time budget: n=" + std::to_string(n) +
                      " was stopped by the budget";
      }
      entries.push_back(std::move(e));
    }
  }

  std::FILE* out = stdout;
  if (!opt.json_path.empty()) {
    out = std::fopen(opt.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_scale: cannot open %s\n",
                   opt.json_path.c_str());
      return 2;
    }
  }
  emit(out, opt, entries);
  if (out != stdout) std::fclose(out);

  if (any_failed) return 1;
  if (budget_breached) {
    std::fprintf(stderr, "bench_scale: RSS budget (%.0f MiB) breached\n",
                 opt.rss_budget_mb);
    return 1;
  }
  return 0;
}
