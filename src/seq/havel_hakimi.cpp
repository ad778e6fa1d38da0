#include "seq/havel_hakimi.h"

#include <algorithm>
#include <queue>
#include <vector>

namespace dgr::seq {

namespace {

// Core loop shared by the test and the builder. Repeatedly satisfies a
// vertex of maximum residual degree by connecting it to the next-largest
// residuals (Theorem 9). `connect` receives each edge; return false from the
// loop means not graphic.
template <typename OnEdge>
bool hh_run(const graph::DegreeSequence& d, OnEdge&& connect) {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  // (residual, vertex)
  std::priority_queue<Entry> pq;
  const std::size_t n = d.size();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (d[v] >= n) return false;  // degree too large for a simple graph
    if (d[v] > 0) pq.push({d[v], v});
  }
  std::vector<Entry> taken;
  while (!pq.empty()) {
    const auto [dv, v] = pq.top();
    pq.pop();
    if (pq.size() < dv) return false;  // not enough partners left
    taken.clear();
    taken.reserve(dv);
    for (std::uint64_t i = 0; i < dv; ++i) {
      taken.push_back(pq.top());
      pq.pop();
    }
    for (auto& [du, u] : taken) {
      connect(v, u);
      if (--du > 0) pq.push({du, u});
    }
  }
  return true;
}

}  // namespace

bool hh_graphic(graph::DegreeSequence d) {
  return hh_run(d, [](std::uint32_t, std::uint32_t) {});
}

std::optional<graph::Graph> hh_realize(const graph::DegreeSequence& d) {
  graph::Graph g(d.size());
  const bool ok = hh_run(d, [&g](std::uint32_t v, std::uint32_t u) {
    g.add_edge(v, u);
  });
  if (!ok) return std::nullopt;
  return g;
}

}  // namespace dgr::seq
