// Overlay construction over unreliable links (§8 robustness extension).
//
//   $ ./lossy_swarm [n] [drop_percent]
//
// Builds a 8-regular overlay's implicit realization over reliable links,
// then switches the network to a lossy regime and finishes the
// explicitization twice: once with the plain fire-and-forget exchange
// (messages silently vanish) and once with the ACK-based exactly-once
// exchange. Prints how many edges each endpoint actually learned — the
// motivation for reliability machinery in real P2P deployments.
//
// Exits 1 unless the implicit realization validates and the ACK-based
// exchange leaves every node with exactly its realized neighbourhood.
#include <cstdlib>
#include <iostream>
#include <string>

#include "graph/generators.h"
#include "ncc/network.h"
#include "realization/explicit_degree.h"
#include "realization/validate.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;
  const double drop =
      (argc > 2 ? std::strtod(argv[2], nullptr) : 30.0) / 100.0;
  const auto d = dgr::graph::regular_sequence(n, 8);

  std::string failure;  // first failed referee check, if any
  auto check = [&](const dgr::realize::Validation& v, const char* what) {
    if (!v.ok && failure.empty()) failure = std::string(what) + ": " + v.message;
  };

  auto run = [&](bool reliable) {
    dgr::ncc::Config cfg;
    cfg.seed = 17;
    dgr::ncc::Network net(n, cfg);
    const auto implicit_result =
        dgr::realize::realize_degrees_implicit(net, d);
    if (!implicit_result.realizable) {
      check(dgr::realize::Validation::fail("8-regular input reported "
                                           "unrealizable"),
            "implicit realization");
    } else {
      check(dgr::realize::validate_degree_realization(net, d,
                                                      implicit_result.stored),
            "implicit realization");
    }
    net.set_drop_probability(drop);
    const auto result =
        reliable ? dgr::realize::make_explicit_reliable(net, implicit_result)
                 : dgr::realize::make_explicit(net, implicit_result);
    if (reliable) {
      check(dgr::realize::validate_explicit_adjacency(
                net, implicit_result.stored, result.adjacency),
            "exactly-once explicitization");
    }
    std::size_t complete_nodes = 0;
    std::size_t learned_edges = 0;
    for (dgr::ncc::Slot s = 0; s < net.n(); ++s) {
      learned_edges += result.adjacency[s].size();
      if (result.adjacency[s].size() == d[s]) ++complete_nodes;
    }
    struct Out {
      std::size_t complete;
      std::size_t learned;
      std::uint64_t rounds;
      std::uint64_t dropped;
    };
    return Out{complete_nodes, learned_edges, result.explicit_rounds,
               net.stats().messages_dropped};
  };

  std::cout << n << "-peer swarm, 8-regular overlay, "
            << static_cast<int>(drop * 100) << "% link loss during "
            << "explicitization\n\n";

  const auto naive = run(false);
  const auto acked = run(true);
  const std::size_t want_edges = 8 * n;

  dgr::Table t("explicitization under loss");
  t.header({"exchange", "nodes w/ complete view", "edge endpoints learned",
            "rounds", "msgs dropped"});
  t.row({"fire-and-forget",
         dgr::Table::num(std::uint64_t{naive.complete}) + "/" +
             dgr::Table::num(std::uint64_t{n}),
         dgr::Table::num(std::uint64_t{naive.learned}) + "/" +
             dgr::Table::num(std::uint64_t{want_edges}),
         dgr::Table::num(naive.rounds), dgr::Table::num(naive.dropped)});
  t.row({"ACK + retransmit (exactly-once)",
         dgr::Table::num(std::uint64_t{acked.complete}) + "/" +
             dgr::Table::num(std::uint64_t{n}),
         dgr::Table::num(std::uint64_t{acked.learned}) + "/" +
             dgr::Table::num(std::uint64_t{want_edges}),
         dgr::Table::num(acked.rounds), dgr::Table::num(acked.dropped)});
  t.print(std::cout);

  if (failure.empty() && acked.complete != n)
    failure = "exactly-once explicitization left a node incomplete";
  if (!failure.empty()) {
    std::cerr << "lossy_swarm: " << failure << "\n";
    return 1;
  }
  return 0;
}
