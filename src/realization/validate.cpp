#include "realization/validate.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "graph/maxflow.h"
#include "seq/connectivity_baseline.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::realize {

graph::Graph graph_from_stored(
    const ncc::Network& net,
    const std::vector<std::vector<ncc::NodeId>>& stored) {
  graph::Graph g(net.n());
  for (ncc::Slot s = 0; s < stored.size(); ++s) {
    for (const ncc::NodeId id : stored[s]) {
      g.add_edge(static_cast<graph::Vertex>(s),
                 static_cast<graph::Vertex>(net.slot_of(id)));
    }
  }
  return g;
}

Validation validate_degree_realization(
    const ncc::Network& net, const std::vector<std::uint64_t>& degree,
    const std::vector<std::vector<ncc::NodeId>>& stored) {
  DGR_CHECK(degree.size() == net.n() && stored.size() == net.n());
  // No edge may be stored twice (once per side or twice on one side).
  std::size_t stored_count = 0;
  for (const auto& lst : stored) stored_count += lst.size();
  const graph::Graph g = graph_from_stored(net, stored);
  if (g.m() != stored_count) {
    std::ostringstream os;
    os << "duplicate or self edges: " << stored_count << " stored vs "
       << g.m() << " distinct";
    return Validation::fail(os.str());
  }
  for (ncc::Slot s = 0; s < net.n(); ++s) {
    if (g.degree(static_cast<graph::Vertex>(s)) != degree[s]) {
      std::ostringstream os;
      os << "slot " << s << " realized degree "
         << g.degree(static_cast<graph::Vertex>(s)) << " != requested "
         << degree[s];
      return Validation::fail(os.str());
    }
  }
  return Validation::pass();
}

Validation validate_explicit_adjacency(
    const ncc::Network& net,
    const std::vector<std::vector<ncc::NodeId>>& stored,
    const std::vector<std::vector<ncc::NodeId>>& adjacency) {
  DGR_CHECK(adjacency.size() == net.n());
  const graph::Graph implicit = graph_from_stored(net, stored);
  const graph::Graph explicit_g = graph_from_stored(net, adjacency);
  if (implicit.m() != explicit_g.m())
    return Validation::fail("explicit edge set differs from implicit");

  // Symmetry: u lists v iff v lists u; and matches the implicit edges.
  for (ncc::Slot s = 0; s < net.n(); ++s) {
    const auto v = static_cast<graph::Vertex>(s);
    if (adjacency[s].size() != implicit.degree(v))
      return Validation::fail("adjacency list length != implicit degree");
    for (const ncc::NodeId id : adjacency[s]) {
      const auto u = static_cast<graph::Vertex>(net.slot_of(id));
      if (!implicit.has_edge(v, u))
        return Validation::fail("explicit edge absent from implicit set");
    }
  }
  return Validation::pass();
}

Validation validate_upper_envelope(
    const ncc::Network& net, const std::vector<std::uint64_t>& degree,
    const std::vector<std::vector<ncc::NodeId>>& stored) {
  DGR_CHECK(degree.size() == net.n() && stored.size() == net.n());
  const graph::Graph g = graph_from_stored(net, stored);
  std::uint64_t total_req = 0;
  std::uint64_t total_real = 0;
  for (ncc::Slot s = 0; s < net.n(); ++s) {
    const auto dv = g.degree(static_cast<graph::Vertex>(s));
    if (dv < degree[s]) {
      std::ostringstream os;
      os << "slot " << s << " envelope violated: " << dv << " < " << degree[s];
      return Validation::fail(os.str());
    }
    total_req += degree[s];
    total_real += dv;
  }
  if (total_real > 2 * total_req)
    return Validation::fail("discrepancy exceeds sum of degrees");
  return Validation::pass();
}

Validation validate_tree_realization(
    const ncc::Network& net, const std::vector<std::uint64_t>& degree,
    const std::vector<std::vector<ncc::NodeId>>& stored) {
  const Validation deg = validate_degree_realization(net, degree, stored);
  if (!deg.ok) return deg;
  const graph::Graph g = graph_from_stored(net, stored);
  if (!g.is_tree()) {
    std::ostringstream os;
    os << "realization is not a tree (" << g.m() << " edges, connected="
       << (g.connected() ? "yes" : "no") << ")";
    return Validation::fail(os.str());
  }
  return Validation::pass();
}

Validation validate_explicit_survivors(
    const ncc::Network& net,
    const std::vector<std::vector<ncc::NodeId>>& stored,
    const std::vector<std::vector<ncc::NodeId>>& adjacency) {
  DGR_CHECK(stored.size() == net.n() && adjacency.size() == net.n());
  const graph::Graph implicit = graph_from_stored(net, stored);
  std::vector<graph::Vertex> listed;  // slot s's adjacency, sorted; reused
  for (ncc::Slot s = 0; s < net.n(); ++s) {
    const auto v = static_cast<graph::Vertex>(s);
    // (i) No phantom or duplicate entries — checked for crashed nodes
    // too: whatever landed in their lists before the crash must still be
    // real edges, delivered at most once.
    listed.clear();
    for (const ncc::NodeId id : adjacency[s]) {
      const auto u = static_cast<graph::Vertex>(net.slot_of(id));
      if (!implicit.has_edge(v, u)) {
        std::ostringstream os;
        os << "surviving slot " << s << " lists phantom edge to " << id;
        return Validation::fail(os.str());
      }
      listed.push_back(u);
    }
    std::sort(listed.begin(), listed.end());
    if (std::adjacent_find(listed.begin(), listed.end()) != listed.end()) {
      std::ostringstream os;
      os << "surviving slot " << s << " lists an edge twice";
      return Validation::fail(os.str());
    }
    // (ii) Completeness among survivors: both sides of every
    // survivor–survivor implicit edge know it. The implicit graph's
    // neighbor list covers both the edges s stored itself and the edges
    // whose aware side is the (surviving) peer — either way both
    // endpoints survived, so the notification must have landed.
    if (net.is_crashed(s)) continue;
    for (const auto u : implicit.neighbors(v)) {
      const auto t = static_cast<ncc::Slot>(u);
      if (net.is_crashed(t)) continue;
      if (!std::binary_search(listed.begin(), listed.end(), u)) {
        std::ostringstream os;
        os << "surviving slot " << s << " never learned its edge to slot "
           << t;
        return Validation::fail(os.str());
      }
    }
  }
  return Validation::pass();
}

Validation validate_connectivity_thresholds(
    const ncc::Network& net, const std::vector<std::uint64_t>& rho,
    const std::vector<std::vector<ncc::NodeId>>& stored,
    std::uint64_t seed) {
  DGR_CHECK(rho.size() == net.n() && stored.size() == net.n());
  // The distinct edge set, with graph_from_stored's semantics: self-entries
  // dropped, mirrored and duplicate entries collapsed, in ascending (lo, hi)
  // order. Packed (lo, hi) keys are counting-sorted by lo; each lo's short
  // bucket of hi ends is then sorted and deduplicated on its own, far
  // cheaper than a global sort or Graph's hash-set inserts.
  std::size_t entries = 0;
  for (const auto& lst : stored) entries += lst.size();
  std::vector<std::uint64_t> keys;
  keys.reserve(entries);
  for (ncc::Slot s = 0; s < stored.size(); ++s) {
    for (const ncc::NodeId id : stored[s]) {
      const auto u = static_cast<graph::Vertex>(s);
      const auto v = static_cast<graph::Vertex>(net.slot_of(id));
      if (u == v) continue;
      keys.push_back((static_cast<std::uint64_t>(std::min(u, v)) << 32) |
                     std::max(u, v));
    }
  }
  DGR_CHECK(keys.size() <= std::numeric_limits<std::uint32_t>::max());
  // start[lo + 1] counts lo's keys; the prefix sum makes it bucket offsets.
  std::vector<std::uint32_t> start(net.n() + 1, 0);
  for (const std::uint64_t k : keys) ++start[(k >> 32) + 1];
  for (std::size_t v = 0; v < net.n(); ++v) start[v + 1] += start[v];
  std::vector<graph::Vertex> hi(keys.size());
  {
    std::vector<std::uint32_t> pos(start.begin(), start.end() - 1);
    for (const std::uint64_t k : keys)
      hi[pos[k >> 32]++] = static_cast<graph::Vertex>(k);
  }
  keys = {};
  // Sort + unique each bucket, compacting in place: afterwards lo's distinct
  // hi ends are hi[start[lo], start[lo + 1]).
  std::uint32_t out = 0;
  for (std::size_t v = 0; v < net.n(); ++v) {
    const std::uint32_t end = start[v + 1];
    std::sort(hi.begin() + start[v], hi.begin() + end);
    const std::uint32_t base = out;
    for (std::uint32_t i = start[v]; i < end; ++i)
      if (out == base || hi[out - 1] != hi[i]) hi[out++] = hi[i];
    start[v] = base;
  }
  start[net.n()] = out;
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  edges.reserve(out);
  for (std::size_t v = 0; v < net.n(); ++v)
    for (std::uint32_t i = start[v]; i < start[v + 1]; ++i)
      edges.emplace_back(static_cast<graph::Vertex>(v), hi[i]);
  hi = {};

  std::uint64_t sum_rho = 0;
  for (const auto r : rho) sum_rho += r;
  // deg(v) >= rho(v) forces OPT >= ceil(sum/2); both §6 algorithms emit at
  // most sum(rho) edges — the 2-approximation certificate.
  if (edges.size() > sum_rho) {
    std::ostringstream os;
    os << "edge count " << edges.size()
       << " exceeds the 2-approximation bound " << sum_rho;
    return Validation::fail(os.str());
  }
  graph::EdgeConnectivity solver(net.n(), edges);
  Rng vrng(hash_mix(seed, 0x5A11FABULL));
  const auto violation = seq::find_threshold_violation(solver, rho, vrng);
  if (violation) {
    std::ostringstream os;
    os << "threshold violated for pair (" << violation->first << ", "
       << violation->second << ")";
    return Validation::fail(os.str());
  }
  return Validation::pass();
}

}  // namespace dgr::realize
