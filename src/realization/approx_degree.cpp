#include "realization/approx_degree.h"

#include "util/check.h"

namespace dgr::realize {

ExplicitDegreeResult realize_upper_envelope(
    ncc::Network& net, const std::vector<std::uint64_t>& degree) {
  return realize_degrees_explicit(net, degree, DegreeMode::kEnvelope);
}

ImplicitDegreeResult realize_upper_envelope_ncc1(
    ncc::Network& net, const std::vector<std::uint64_t>& degree) {
  ncc::ScopedRounds scope(net, "envelope_ncc1");
  DGR_CHECK_MSG(net.is_clique(), "requires NCC1");
  const std::uint64_t start = net.stats().rounds;
  const std::size_t n = net.n();
  DGR_CHECK(degree.size() == n);

  ImplicitDegreeResult result;
  result.stored.assign(n, {});
  result.phases = 0;

  // Feasibility is locally checkable in NCC1 (n is common knowledge):
  // d(v) > n-1 admits no simple realization, envelope or otherwise.
  for (ncc::Slot s = 0; s < n; ++s) {
    if (degree[s] >= n) {
      result.realizable = false;
      result.rounds = net.stats().rounds - start;
      return result;
    }
  }
  if (n <= 1) {
    result.rounds = 0;
    return result;
  }

  // Zero-round selection: v takes the d(v) IDs cyclically following its own
  // position in the common-knowledge sorted ID list.
  const std::vector<ncc::NodeId>& sorted_ids = net.sorted_ids();
  std::vector<std::size_t> rank_of_slot(n);
  for (std::size_t r = 0; r < n; ++r)
    rank_of_slot[net.slot_of(sorted_ids[r])] = r;

  for (ncc::Slot s = 0; s < n; ++s) {
    const std::size_t my_rank = rank_of_slot[s];
    for (std::uint64_t t = 1; t <= degree[s]; ++t) {
      result.stored[s].push_back(sorted_ids[(my_rank + t) % n]);
    }
  }
  result.rounds = net.stats().rounds - start;
  return result;
}

}  // namespace dgr::realize
