// dgr_scenarios — the §8 robustness harness CLI.
//
//   dgr_scenarios list
//   dgr_scenarios run [--scenario=a,b,...] [--algos=implicit,tree,...]
//                     [--n=32,64,...] [--threads=N] [--jobs=N] [--seed=N]
//                     [--dense] [--json=path] [--csv=path] [--no-intervals]
//                     [--telemetry-socket=PATH] [--progress] [--quiet]
//
// `run` executes the named scenarios (default: the whole built-in library)
// across the selected realization algorithms and n sweep, validates every
// completed output against realization/validate, prints one summary table
// per scenario, and optionally writes the deterministic JSON/CSV report
// (same seed => byte-identical file at any --threads, any --jobs, and
// with/without --dense). --jobs=N runs the matrix N-way concurrent on the
// process-wide executor; --progress prints one whole line per completed
// run (the runner serializes the callback, so lines never interleave).
// Exit code 0 iff every run validated.
//
// --telemetry-socket=PATH turns on the live observability plane: an
// obs::Exporter is bound at PATH (scrape it with `dgr_top --socket=PATH`
// or `scripts/obs_tail.sh PATH`), every run's Network feeds the process
// metrics registry through its own obs::NetMetrics sink, and each completed
// round publishes one NDJSON event to "stream" subscribers. Pure
// observation: the report bytes are identical with or without the flag.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ncc/telemetry.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "scenario/library.h"
#include "scenario/report.h"
#include "scenario/runner.h"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int usage() {
  std::cerr
      << "usage: dgr_scenarios list\n"
         "       dgr_scenarios run [--scenario=a,b,...] [--algos=csv]\n"
         "                         [--n=csv] [--threads=N] [--jobs=N]\n"
         "                         [--seed=N] [--dense] [--json=path]\n"
         "                         [--csv=path] [--no-intervals]\n"
         "                         [--telemetry-socket=PATH]\n"
         "                         [--progress] [--quiet]\n";
  return 2;
}

int list_scenarios() {
  for (const auto& s : dgr::scenario::builtin_scenarios()) {
    std::cout << s.name << " — " << s.description << "\n";
  }
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  f << content;
  return true;
}

/// One NDJSON "round" event for stream subscribers. Scenario/algo names
/// come from the built-in library (identifier-shaped), so no escaping.
std::string round_event(const std::string& scenario, const std::string& algo,
                        std::uint64_t n, const dgr::ncc::RoundSample& s) {
  std::ostringstream ev;
  ev << "{\"event\":\"round\",\"scenario\":\"" << scenario << "\",\"algo\":\""
     << algo << "\",\"n\":" << n << ",\"round\":" << s.round
     << ",\"sent\":" << s.sent << ",\"delivered\":" << s.delivered
     << ",\"bounced\":" << s.bounced << ",\"dropped\":" << s.dropped
     << ",\"frontier\":" << s.frontier << ",\"crashed\":" << s.crashed
     << ",\"phase_ns\":{\"body\":" << s.phase_ns.body
     << ",\"sort\":" << s.phase_ns.sort << ",\"rng\":" << s.phase_ns.rng
     << ",\"placement\":" << s.phase_ns.placement
     << ",\"learn\":" << s.phase_ns.learn << "}}";
  return ev.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "list") return list_scenarios();
  if (command != "run") return usage();

  dgr::scenario::RunnerOptions opt;
  std::vector<dgr::scenario::ScenarioSpec> specs;
  std::string json_path;
  std::string csv_path;
  std::string socket_path;
  bool quiet = false;
  bool progress = false;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto starts = [&](const char* p) { return a.rfind(p, 0) == 0; };
    if (starts("--scenario=")) {
      for (const auto& name : split_csv(a.substr(11))) {
        const auto* s = dgr::scenario::find_scenario(name);
        if (!s) {
          std::cerr << "unknown scenario: " << name
                    << " (see `dgr_scenarios list`)\n";
          return 2;
        }
        specs.push_back(*s);
      }
    } else if (starts("--algos=")) {
      opt.algos.clear();
      for (const auto& name : split_csv(a.substr(8))) {
        dgr::scenario::Algo algo;
        if (!dgr::scenario::algo_from_string(name, algo)) {
          std::cerr << "unknown algorithm: " << name
                    << " (approx|implicit|explicit|tree|connectivity)\n";
          return 2;
        }
        opt.algos.push_back(algo);
      }
    } else if (starts("--n=")) {
      opt.n_override.clear();
      for (const auto& v : split_csv(a.substr(4))) {
        const std::size_t n = std::strtoull(v.c_str(), nullptr, 10);
        // The harness floor mirrors check_spec: below 8 nodes there is no
        // room for trees and crash waves (and 0 means "not a number").
        if (n < 8) {
          std::cerr << "bad --n value '" << v << "' (need integers >= 8)\n";
          return 2;
        }
        opt.n_override.push_back(n);
      }
    } else if (starts("--threads=")) {
      opt.threads = static_cast<unsigned>(
          std::strtoul(a.c_str() + 10, nullptr, 10));
    } else if (starts("--jobs=")) {
      opt.jobs = static_cast<unsigned>(
          std::strtoul(a.c_str() + 7, nullptr, 10));
    } else if (starts("--seed=")) {
      opt.seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a == "--dense") {
      opt.sparse_rounds = false;
    } else if (starts("--json=")) {
      json_path = a.substr(7);
    } else if (starts("--csv=")) {
      csv_path = a.substr(6);
    } else if (starts("--telemetry-socket=")) {
      socket_path = a.substr(19);
    } else if (a == "--no-intervals") {
      opt.keep_intervals = false;
    } else if (a == "--progress") {
      progress = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return usage();
    }
  }
  if (specs.empty()) specs = dgr::scenario::builtin_scenarios();

  if (progress) {
    // One fully-formed line per completed run. The runner already
    // serializes progress callbacks, so concurrent jobs cannot interleave
    // output; building the line in one string and writing it in a single
    // insertion keeps it whole even if other stderr writers exist.
    opt.progress = [](std::size_t done, std::size_t total,
                      const dgr::scenario::RunRecord& r) {
      std::ostringstream line;
      line << "[" << done << "/" << total << "] " << r.scenario << " / "
           << r.algo << " / n=" << r.n << ": " << r.outcome
           << (r.validated ? "" : " (NOT VALIDATED)") << "\n";
      std::cerr << line.str();
    };
  }

  // Live observability plane (--telemetry-socket): exporter + per-run
  // metrics on the process registry + per-round NDJSON events. Constructed
  // before run_matrix so an external watcher can connect first; destroyed
  // after, which closes subscribers and unlinks the socket.
  std::unique_ptr<dgr::obs::Exporter> exporter;
  if (!socket_path.empty()) {
    try {
      exporter = std::make_unique<dgr::obs::Exporter>(socket_path);
    } catch (const std::exception& e) {
      std::cerr << "cannot bind telemetry socket: " << e.what() << "\n";
      return 1;
    }
    // Timing on: phase nanos in round events, queue-wait histograms in the
    // scraped registry. Observability only — never in the report bytes.
    dgr::obs::Registry::set_timing(true);
    opt.metrics = &dgr::obs::Registry::instance();
    opt.on_sample = [&exporter](const std::string& scenario,
                                const std::string& algo, std::uint64_t n,
                                const dgr::ncc::RoundSample& s) {
      exporter->publish(round_event(scenario, algo, n, s));
    };
    auto inner_progress = opt.progress;
    opt.progress = [&exporter, inner_progress](
                       std::size_t done, std::size_t total,
                       const dgr::scenario::RunRecord& r) {
      std::ostringstream ev;
      ev << "{\"event\":\"run_end\",\"scenario\":\"" << r.scenario
         << "\",\"algo\":\"" << r.algo << "\",\"n\":" << r.n
         << ",\"outcome\":\"" << r.outcome
         << "\",\"validated\":" << (r.validated ? "true" : "false")
         << ",\"done\":" << done << ",\"total\":" << total << "}";
      exporter->publish(ev.str());
      if (inner_progress) inner_progress(done, total, r);
    };
  }

  const auto report = dgr::scenario::run_matrix(specs, opt);

  if (!quiet) std::cout << dgr::scenario::to_table(report);
  if (!json_path.empty() &&
      !write_file(json_path, dgr::scenario::to_json(report)))
    return 1;
  if (!csv_path.empty() &&
      !write_file(csv_path, dgr::scenario::to_csv(report)))
    return 1;

  std::size_t failed = 0;
  for (const auto& s : report.scenarios) {
    for (const auto& r : s.runs) {
      if (!r.validated) {
        ++failed;
        std::cerr << "FAIL " << s.name << " / " << r.algo << " / n=" << r.n
                  << ": " << r.outcome << " — " << r.validation << "\n";
      }
    }
  }
  std::cout << report.run_count() - failed << "/" << report.run_count()
            << " runs validated\n";
  return failed == 0 ? 0 : 1;
}
