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

void EdgeConnectivity::label() {
  const std::size_t nv = n();
  comp_.assign(nv, kNoLabel);
  two_ec_.assign(nv, kNoLabel);
  std::fill(cap_.begin(), cap_.end(), std::uint8_t{1});
  // Iterative low-link DFS. stamp_ holds discovery times, level_ low-links,
  // iter_ each vertex's arc cursor and queue_ the DFS stack. A vertex's
  // tree arc is its parent's current arc, iter_[parent], so only that arc's
  // exact reverse is skipped: a parallel edge back to the parent is a back
  // edge, never a bridge.
  std::uint32_t timer = 0;
  std::uint32_t ncomp = 0;
  for (Vertex root = 0; root < nv; ++root) {
    if (comp_[root] != kNoLabel) continue;
    std::size_t sp = 0;
    const auto discover = [&](Vertex v) {
      comp_[v] = ncomp;
      stamp_[v] = level_[v] = timer++;
      iter_[v] = off_[v];
      queue_[sp++] = v;
    };
    discover(root);
    while (sp > 0) {
      const Vertex v = queue_[sp - 1];
      const std::uint32_t i = iter_[v];
      if (i < off_[v + 1]) {
        const Vertex w = head_[i];
        if (sp > 1 && i == rev_[iter_[queue_[sp - 2]]]) {
          ++iter_[v];
        } else if (comp_[w] == kNoLabel) {
          discover(w);
        } else {
          level_[v] = std::min(level_[v], stamp_[w]);
          ++iter_[v];
        }
        continue;
      }
      if (--sp == 0) break;
      const Vertex p = queue_[sp - 1];
      const std::uint32_t a = iter_[p];
      level_[p] = std::min(level_[p], level_[v]);
      if (level_[v] > stamp_[p]) cap_[a] = cap_[rev_[a]] = 0;  // bridge
      ++iter_[p];
    }
    ++ncomp;
  }
  // 2-edge-connected components: flood over the non-bridge arcs.
  std::uint32_t nlabel = 0;
  for (Vertex root = 0; root < nv; ++root) {
    if (two_ec_[root] != kNoLabel) continue;
    std::size_t qhead = 0;
    std::size_t qtail = 0;
    two_ec_[root] = nlabel;
    queue_[qtail++] = root;
    while (qhead < qtail) {
      const Vertex v = queue_[qhead++];
      for (std::uint32_t i = off_[v]; i < off_[v + 1]; ++i) {
        const Vertex w = head_[i];
        if (cap_[i] == 0 || two_ec_[w] != kNoLabel) continue;
        two_ec_[w] = nlabel;
        queue_[qtail++] = w;
      }
    }
    ++nlabel;
  }
  // Hand the scratch back to bfs() in its initial state.
  std::fill(stamp_.begin(), stamp_.end(), 0);
  epoch_ = 0;
}

std::uint64_t EdgeConnectivity::query(Vertex s, Vertex t,
                                      std::uint64_t limit) {
  DGR_CHECK(s < n() && t < n());
  if (s == t) return 0;
  // The flow can never exceed either endpoint's degree.
  limit = std::min<std::uint64_t>(
      {limit, off_[s + 1] - off_[s], off_[t + 1] - off_[t]});
  if (comp_.empty()) label();
  // Menger: Conn >= 1 iff s and t are connected, and Conn >= 2 iff no
  // bridge separates them, i.e. they share a 2-edge-connected component.
  if (limit == 0 || comp_[s] != comp_[t]) return 0;
  if (limit == 1 || two_ec_[s] != two_ec_[t]) return 1;
  if (limit == 2) return 2;
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
