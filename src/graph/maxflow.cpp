#include "graph/maxflow.h"

#include <algorithm>

#include "util/check.h"

namespace dgr::graph {

EdgeConnectivity::EdgeConnectivity(const Graph& g)
    : EdgeConnectivity(g.n(), g.edges()) {}

EdgeConnectivity::EdgeConnectivity(
    std::size_t n, std::span<const std::pair<Vertex, Vertex>> edges)
    : off_(n + 1, 0),
      stamp_(n, 0),
      level_(n, 0),
      iter_(n, 0),
      queue_(n, 0) {
  DGR_CHECK_MSG(edges.size() <= std::numeric_limits<std::uint32_t>::max() / 2,
                "2m = " << 2 * edges.size() << " arcs overflow uint32");
  for (const auto& [u, v] : edges) {
    DGR_CHECK(u < n && v < n && u != v);
    ++off_[u + 1];
    ++off_[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) off_[v + 1] += off_[v];
  // Undirected unit edge = antiparallel unit arcs, in edge order per vertex.
  const std::size_t arcs = 2 * edges.size();
  head_.resize(arcs);
  rev_.resize(arcs);
  cap_.resize(arcs);
  std::vector<std::uint32_t> pos(off_.begin(), off_.end() - 1);
  for (const auto& [u, v] : edges) {
    const std::uint32_t iu = pos[u]++;
    const std::uint32_t iv = pos[v]++;
    head_[iu] = v;
    head_[iv] = u;
    rev_[iu] = iv;
    rev_[iv] = iu;
  }
}

bool EdgeConnectivity::bfs(Vertex s, Vertex t) {
  if (++epoch_ == 0) {  // wrapped: old stamps could alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  stamp_[s] = epoch_;
  level_[s] = 0;
  iter_[s] = off_[s];
  std::size_t qhead = 0;
  std::size_t qtail = 0;
  queue_[qtail++] = s;
  while (qhead < qtail) {
    const Vertex v = queue_[qhead++];
    for (std::uint32_t i = off_[v]; i < off_[v + 1]; ++i) {
      const Vertex w = head_[i];
      if (cap_[i] == 0 || stamp_[w] == epoch_) continue;
      stamp_[w] = epoch_;
      level_[w] = level_[v] + 1;
      iter_[w] = off_[w];
      // Every vertex below t's level is already stamped, so the shortest
      // paths' layered graph is complete.
      if (w == t) return true;
      queue_[qtail++] = w;
    }
  }
  return false;
}

bool EdgeConnectivity::augment(Vertex s, Vertex t) {
  path_.clear();
  const std::uint32_t lt = level_[t];
  Vertex v = s;
  while (v != t) {
    const std::uint32_t next = level_[v] + 1;
    std::uint32_t& i = iter_[v];
    for (; i < off_[v + 1]; ++i) {
      const Vertex w = head_[i];
      if (cap_[i] != 0 && stamp_[w] == epoch_ && level_[w] == next &&
          (next < lt || w == t))
        break;
    }
    if (i < off_[v + 1]) {
      path_.push_back(i);
      v = head_[i];
      continue;
    }
    // Dead end: v stays exhausted for this phase; retreat past its arc.
    if (path_.empty()) return false;
    v = head_[rev_[path_.back()]];
    path_.pop_back();
    ++iter_[v];
  }
  for (const std::uint32_t a : path_) {
    --cap_[a];
    ++cap_[rev_[a]];
  }
  return true;
}

std::uint64_t EdgeConnectivity::query(Vertex s, Vertex t,
                                      std::uint64_t limit) {
  DGR_CHECK(s < n() && t < n());
  if (s == t) return 0;
  // The flow can never exceed either endpoint's degree.
  limit = std::min<std::uint64_t>(
      {limit, off_[s + 1] - off_[s], off_[t + 1] - off_[t]});
  std::fill(cap_.begin(), cap_.end(), std::uint8_t{1});
  std::uint64_t flow = 0;
  while (flow < limit && bfs(s, t)) {
    while (flow < limit && augment(s, t)) ++flow;
  }
  return flow;
}

std::uint64_t edge_connectivity(const Graph& g, Vertex s, Vertex t) {
  EdgeConnectivity solver(g);
  return solver.query(s, t);
}

}  // namespace dgr::graph
