// Sequential baseline for the §6 connectivity-threshold problem, in the
// style of Frank–Chou [15]: a hub construction that 2-approximates the
// minimum edge count, plus the lower bound and an independent max-flow
// verifier used by tests and benches.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/maxflow.h"
#include "util/rng.h"

namespace dgr::seq {

/// Any graph meeting the thresholds has at least ceil(sum rho / 2) edges
/// (every v needs degree >= rho(v)).
std::uint64_t connectivity_edge_lower_bound(
    const graph::ThresholdVector& rho);

/// Hub construction: w = argmax rho; every other v connects to w plus
/// rho(v)-1 further nodes. Satisfies Conn(u,v) >= min(rho(u), rho(v)) with
/// at most sum(rho) <= 2*OPT edges. Requires rho(v) <= n-1 for all v.
graph::Graph connectivity_baseline(const graph::ThresholdVector& rho);

/// Independent verifier: checks Conn(u, v) >= min(rho(u), rho(v)) by
/// max-flow, each query capped at that threshold. Checks all pairs when
/// n <= pair_exhaustive_limit. Otherwise it checks the extremal pair (the
/// two largest thresholds, ties to the lowest vertex index; no RNG draw),
/// then `samples` random pairs. Returns the first failing pair, or nullopt
/// if everything holds.
std::optional<std::pair<graph::Vertex, graph::Vertex>> find_threshold_violation(
    graph::EdgeConnectivity& solver, const graph::ThresholdVector& rho,
    Rng& rng, std::size_t pair_exhaustive_limit = 64,
    std::size_t samples = 256);

/// Same check on g, through a solver built for the call.
std::optional<std::pair<graph::Vertex, graph::Vertex>> find_threshold_violation(
    const graph::Graph& g, const graph::ThresholdVector& rho, Rng& rng,
    std::size_t pair_exhaustive_limit = 64, std::size_t samples = 256);

}  // namespace dgr::seq
