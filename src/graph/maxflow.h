// Dinic's max-flow on unit-capacity undirected graphs, used to verify
// edge-connectivity thresholds (Menger: edge connectivity = max number of
// edge-disjoint paths = s-t max flow with unit capacities).
//
// Layout: the graph is stored once as CSR. Vertex v's arcs are
// [off_[v], off_[v+1]); arc i points at head_[i], and rev_[i] is its
// antiparallel twin. Each undirected edge is two unit arcs, so a residual
// capacity is 0, 1 or 2 and fits a uint8; a query resets all of them with
// one fill. Arc indices are uint32, so 2m must fit in 32 bits.
//
// Per phase, BFS levels are stamped with an epoch counter (no O(n) clear)
// and the BFS stops as soon as t is reached; the blocking-flow DFS is
// iterative, so path length is not bounded by the call stack.
//
// Label fast path. The first query labels every vertex with its connected
// component and its 2-edge-connected component (bridges from one iterative
// low-link DFS, then a flood over the non-bridge edges), in O(n + m) total.
// By Menger's theorem Conn(s, t) >= 1 iff s and t are connected, and
// Conn(s, t) >= 2 iff no bridge separates them, i.e. they share a
// 2-edge-connected label. So a query whose answer is decided below 3 (the
// endpoints are disconnected or bridge-separated, or the cap is at most 2)
// is O(1) and never runs Dinic. The DFS reuses the per-query scratch and
// marks bridges in the residual capacities that every Dinic query refills;
// only the two label arrays persist, 8 bytes per vertex.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace dgr::graph {

/// Max-flow solver bound to one graph; reusable across (s, t) queries.
class EdgeConnectivity {
 public:
  explicit EdgeConnectivity(const Graph& g);

  /// Graph on vertices 0..n-1 with the given undirected edges. Self-loops
  /// are rejected; a repeated edge counts as a parallel edge.
  EdgeConnectivity(std::size_t n,
                   std::span<const std::pair<Vertex, Vertex>> edges);

  std::size_t n() const { return off_.size() - 1; }

  /// Edge connectivity between s and t (number of edge-disjoint s-t
  /// paths), capped at `limit`: returns min(Conn(s, t), limit). Augmenting
  /// stops as soon as the flow reaches `limit`, so `query(s, t, k) >= k`
  /// decides Conn(s, t) >= k without computing the exact value. With the
  /// default limit the result is exact. query(s, s, ·) is 0.
  std::uint64_t query(Vertex s, Vertex t,
                      std::uint64_t limit =
                          std::numeric_limits<std::uint64_t>::max());

 private:
  static constexpr std::uint32_t kNoLabel =
      std::numeric_limits<std::uint32_t>::max();

  void label();
  bool bfs(Vertex s, Vertex t);
  bool augment(Vertex s, Vertex t);

  std::vector<std::uint32_t> off_;  // n + 1 arc offsets
  std::vector<Vertex> head_;        // 2m arc targets
  std::vector<std::uint32_t> rev_;  // 2m reverse-arc indices
  std::vector<std::uint8_t> cap_;   // 2m residual capacities
  std::vector<std::uint32_t> stamp_;  // epoch at which level_ was set
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> iter_;  // current-arc cursor per vertex
  std::vector<Vertex> queue_;
  std::vector<std::uint32_t> path_;  // arcs of the DFS path from s
  std::vector<std::uint32_t> comp_;    // connected-component label
  std::vector<std::uint32_t> two_ec_;  // 2-edge-connected-component label
  std::uint32_t epoch_ = 0;
};

/// Convenience one-shot query.
std::uint64_t edge_connectivity(const Graph& g, Vertex s, Vertex t);

}  // namespace dgr::graph
