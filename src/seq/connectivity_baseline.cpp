#include "seq/connectivity_baseline.h"

#include <algorithm>
#include <numeric>

#include "graph/maxflow.h"
#include "util/check.h"

namespace dgr::seq {

std::uint64_t connectivity_edge_lower_bound(
    const graph::ThresholdVector& rho) {
  const std::uint64_t sum =
      std::accumulate(rho.begin(), rho.end(), std::uint64_t{0});
  return (sum + 1) / 2;
}

graph::Graph connectivity_baseline(const graph::ThresholdVector& rho) {
  const std::size_t n = rho.size();
  graph::Graph g(n);
  if (n <= 1) return g;
  const auto w = static_cast<graph::Vertex>(
      std::max_element(rho.begin(), rho.end()) - rho.begin());
  for (graph::Vertex v = 0; v < n; ++v) {
    if (v == w) continue;
    DGR_CHECK_MSG(rho[v] + 1 <= n, "rho(v) must be <= n-1");
    g.add_edge(v, w);
    // rho(v) - 1 further partners: the lowest-numbered vertices != v, w.
    std::uint64_t added = 0;
    for (graph::Vertex u = 0; u < n && added + 1 < rho[v]; ++u) {
      if (u == v || u == w) continue;
      if (g.add_edge(v, u)) ++added;
      else if (g.has_edge(v, u)) ++added;  // already built from the far side
    }
  }
  return g;
}

std::optional<std::pair<graph::Vertex, graph::Vertex>> find_threshold_violation(
    graph::EdgeConnectivity& solver, const graph::ThresholdVector& rho,
    Rng& rng, std::size_t pair_exhaustive_limit, std::size_t samples) {
  const std::size_t n = solver.n();
  DGR_CHECK(rho.size() == n);
  if (n < 2) return std::nullopt;

  auto violates = [&](graph::Vertex a, graph::Vertex b) {
    const std::uint64_t need = std::min(rho[a], rho[b]);
    return solver.query(a, b, need) < need;
  };

  if (n <= pair_exhaustive_limit) {
    for (graph::Vertex a = 0; a < n; ++a)
      for (graph::Vertex b = a + 1; b < n; ++b)
        if (violates(a, b)) return std::make_pair(a, b);
    return std::nullopt;
  }

  // Extremal pair: the two largest thresholds are the hardest to satisfy.
  // Ascending scan with strict comparisons: ties go to the lowest index.
  graph::Vertex top = 0;
  graph::Vertex second = 1;
  if (rho[1] > rho[0]) std::swap(top, second);
  for (graph::Vertex v = 2; v < n; ++v) {
    if (rho[v] > rho[top]) {
      second = top;
      top = v;
    } else if (rho[v] > rho[second]) {
      second = v;
    }
  }
  if (violates(top, second)) return std::make_pair(top, second);

  for (std::size_t s = 0; s < samples; ++s) {
    const auto a = static_cast<graph::Vertex>(rng.below(n));
    auto b = static_cast<graph::Vertex>(rng.below(n));
    if (a == b) b = (b + 1) % static_cast<graph::Vertex>(n);
    if (violates(a, b)) return std::make_pair(a, b);
  }
  return std::nullopt;
}

std::optional<std::pair<graph::Vertex, graph::Vertex>> find_threshold_violation(
    const graph::Graph& g, const graph::ThresholdVector& rho, Rng& rng,
    std::size_t pair_exhaustive_limit, std::size_t samples) {
  graph::EdgeConnectivity solver(g);
  return find_threshold_violation(solver, rho, rng, pair_exhaustive_limit,
                                  samples);
}

}  // namespace dgr::seq
