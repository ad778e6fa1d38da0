#include "realization/explicit_degree.h"

#include "primitives/collection.h"
#include "primitives/reliable.h"
#include "util/check.h"

namespace dgr::realize {

namespace {
constexpr std::uint32_t kTagEdgeNotify = 0x110;

// Shared by the three explicitizations: fills the result shell and, for a
// realizable input, returns the notify batch. Aware endpoints start with
// their stored neighbours and notify each of them.
std::vector<std::vector<prim::DirectSend>> notify_batch(
    const ncc::Network& net, const ImplicitDegreeResult& implicit_result,
    ExplicitDegreeResult& out) {
  out.realizable = implicit_result.realizable;
  out.implicit_rounds = implicit_result.rounds;
  out.phases = implicit_result.phases;
  const std::size_t n = net.n();
  out.adjacency.assign(n, {});
  std::vector<std::vector<prim::DirectSend>> batch;
  if (!out.realizable) return batch;
  batch.resize(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    out.adjacency[s] = implicit_result.stored[s];
    for (const ncc::NodeId v : implicit_result.stored[s])
      batch[s].push_back({v, kTagEdgeNotify, 0, false});
  }
  return batch;
}

// The other endpoint learns each edge from the notification's sender ID.
prim::DirectDeliver learn_edge(ExplicitDegreeResult& out) {
  return [&out](prim::Slot receiver, ncc::NodeId src, std::uint32_t user_tag,
                std::uint64_t) {
    if (user_tag == kTagEdgeNotify) out.adjacency[receiver].push_back(src);
  };
}
}  // namespace

ExplicitDegreeResult make_explicit(
    ncc::Network& net, const ImplicitDegreeResult& implicit_result) {
  ExplicitDegreeResult out;
  const auto batch = notify_batch(net, implicit_result, out);
  if (out.realizable)
    out.explicit_rounds = prim::direct_exchange(net, batch, learn_edge(out));
  return out;
}

ExplicitDegreeResult realize_degrees_explicit(
    ncc::Network& net, const std::vector<std::uint64_t>& degree,
    DegreeMode mode) {
  const ImplicitDegreeResult implicit_result =
      realize_degrees_implicit(net, degree, mode);
  return make_explicit(net, implicit_result);
}

ExplicitDegreeResult make_explicit_reliable(
    ncc::Network& net, const ImplicitDegreeResult& implicit_result) {
  ExplicitDegreeResult out;
  const auto batch = notify_batch(net, implicit_result, out);
  if (out.realizable)
    out.explicit_rounds = prim::reliable_exchange(net, batch, learn_edge(out));
  return out;
}

ResilientExplicitResult make_explicit_resilient(
    ncc::Network& net, const ImplicitDegreeResult& implicit_result,
    std::uint64_t retransmit_after, std::uint64_t max_attempts) {
  ResilientExplicitResult res;
  ExplicitDegreeResult& out = res.result;
  const auto batch = notify_batch(net, implicit_result, out);
  if (!out.realizable) return res;
  const prim::ReliableResult xc = prim::reliable_exchange_bounded(
      net, batch, learn_edge(out), retransmit_after, max_attempts);
  out.explicit_rounds = xc.rounds;
  res.given_up = xc.given_up;
  return res;
}

}  // namespace dgr::realize
