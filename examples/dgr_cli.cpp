// dgr_cli — run the paper's realization algorithms on your own inputs.
//
//   dgr_cli degrees 3,3,2,2,2 [--model=ncc0|ncc1] [--seed=N] [--envelope]
//   dgr_cli tree 3,2,1,1,1 [--max-diameter]
//   dgr_cli thresholds 4,2,2,1,1 [--model=ncc0|ncc1]
//
// Prints the realized overlay (per-node neighbour lists), verification
// results and simulator statistics.
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "graph/degree_sequence.h"
#include "graph/tree_metrics.h"
#include "ncc/network.h"
#include "realization/approx_degree.h"
#include "realization/connectivity.h"
#include "realization/explicit_degree.h"
#include "realization/tree_realization.h"
#include "realization/validate.h"
#include "seq/connectivity_baseline.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

/// The whole token as a base-10 unsigned integer, or exit 2 naming it: a
/// sign, trailing characters or an out-of-range value is rejected, never
/// read as a prefix or wrapped.
std::uint64_t parse_u64(std::string_view token, const char* what) {
  std::uint64_t v = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    std::cerr << "invalid " << what << " '" << token << "'\n";
    std::exit(2);
  }
  return v;
}

std::vector<std::uint64_t> parse_sequence(const std::string& csv) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_u64(item, "sequence entry"));
  }
  return out;
}

struct Options {
  bool ncc1 = false;
  bool envelope = false;
  bool max_diameter = false;
  std::uint64_t seed = 1;
};

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--model=ncc1") opt.ncc1 = true;
    else if (a == "--model=ncc0") opt.ncc1 = false;
    else if (a == "--envelope") opt.envelope = true;
    else if (a == "--max-diameter") opt.max_diameter = true;
    else if (a.rfind("--seed=", 0) == 0)
      opt.seed = parse_u64(std::string_view(a).substr(7), "seed");
    else {
      std::cerr << "unknown option: " << a << "\n";
      std::exit(2);
    }
  }
  return opt;
}

dgr::ncc::Network make_network(std::size_t n, const Options& opt) {
  dgr::ncc::Config cfg;
  cfg.seed = opt.seed;
  if (opt.ncc1) cfg.initial = dgr::ncc::InitialKnowledge::kClique;
  return dgr::ncc::Network(n, cfg);
}

void print_overlay(const dgr::ncc::Network& net,
                   const std::vector<std::vector<dgr::ncc::NodeId>>& adj) {
  std::cout << "\noverlay (node: neighbours):\n";
  const std::size_t show = std::min<std::size_t>(net.n(), 16);
  for (dgr::ncc::Slot s = 0; s < show; ++s) {
    std::cout << "  " << net.id_of(s) << ":";
    for (const auto v : adj[s]) std::cout << ' ' << v;
    std::cout << '\n';
  }
  if (show < net.n())
    std::cout << "  ... (" << net.n() - show << " more nodes)\n";
}

void print_stats(const dgr::ncc::Network& net) {
  std::cout << "\nrounds: " << net.stats().rounds
            << ", messages: " << net.stats().messages_sent
            << ", capacity/round: " << net.capacity() << "\n";
}

int run_degrees(const std::vector<std::uint64_t>& d, const Options& opt) {
  auto net = make_network(d.size(), opt);
  const auto mode = opt.envelope ? dgr::realize::DegreeMode::kEnvelope
                                 : dgr::realize::DegreeMode::kExact;
  const auto result = dgr::realize::realize_degrees_explicit(net, d, mode);
  if (!result.realizable) {
    std::cout << "UNREALIZABLE (not a graphic sequence)";
    if (!opt.envelope) std::cout << " — try --envelope";
    std::cout << "\n";
    return 1;
  }
  print_overlay(net, result.adjacency);
  bool exact = true;
  for (dgr::ncc::Slot s = 0; s < net.n(); ++s) {
    if (opt.envelope ? result.adjacency[s].size() < d[s]
                     : result.adjacency[s].size() != d[s])
      exact = false;
  }
  std::cout << "\nverified: "
            << (exact ? (opt.envelope ? "envelope (deg >= requested)"
                                      : "exact degrees")
                      : "FAILED")
            << ", phases: " << result.phases;
  print_stats(net);
  return exact ? 0 : 1;
}

int run_tree(const std::vector<std::uint64_t>& d, const Options& opt) {
  auto net = make_network(d.size(), opt);
  const auto result =
      opt.max_diameter ? dgr::realize::realize_tree_caterpillar(net, d)
                       : dgr::realize::realize_tree_greedy(net, d);
  if (!result.realizable) {
    std::cout << "UNREALIZABLE as a tree (need sum d = 2(n-1), all d >= 1)\n";
    return 1;
  }
  const auto g = dgr::realize::graph_from_stored(net, result.stored);
  print_overlay(net, result.stored);
  std::cout << "\nverified: " << (g.is_tree() ? "tree" : "NOT A TREE")
            << ", diameter: " << dgr::graph::tree_diameter(g)
            << (opt.max_diameter ? " (maximized)" : " (minimized, Lemma 15)");
  print_stats(net);
  return g.is_tree() ? 0 : 1;
}

int run_thresholds(const std::vector<std::uint64_t>& rho,
                   const Options& opt) {
  auto net = make_network(rho.size(), opt);
  const auto result =
      opt.ncc1 ? dgr::realize::realize_connectivity_ncc1(net, rho)
               : dgr::realize::realize_connectivity_ncc0(net, rho);
  if (!result.realizable) {
    std::cout << "INFEASIBLE (some rho > n-1)\n";
    return 1;
  }
  const auto g = dgr::realize::graph_from_stored(net, result.stored);
  print_overlay(net, result.stored);
  dgr::Rng vrng(99);
  const auto violation =
      dgr::seq::find_threshold_violation(g, rho, vrng);
  const auto lb = dgr::seq::connectivity_edge_lower_bound(rho);
  std::cout << "\nverified: "
            << (violation ? "VIOLATION FOUND" : "thresholds met (max-flow)")
            << ", edges: " << g.m() << " (lower bound " << lb
            << ", ratio "
            << dgr::Table::num(static_cast<double>(g.m()) /
                                   static_cast<double>(std::max<std::uint64_t>(
                                       lb, 1)),
                               2)
            << ", bound 2)";
  print_stats(net);
  return violation ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: dgr_cli degrees|tree|thresholds <csv sequence> "
                 "[--model=ncc0|ncc1] [--seed=N] [--envelope] "
                 "[--max-diameter]\n";
    return 2;
  }
  const std::string command = argv[1];
  const auto sequence = parse_sequence(argv[2]);
  if (sequence.empty()) {
    std::cerr << "empty sequence\n";
    return 2;
  }
  const Options opt = parse_options(argc, argv, 3);

  if (command == "degrees") return run_degrees(sequence, opt);
  if (command == "tree") return run_tree(sequence, opt);
  if (command == "thresholds") return run_thresholds(sequence, opt);
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}
