#include "primitives/collection.h"

#include "ncc/send_queue.h"
#include "primitives/broadcast.h"
#include "util/check.h"

namespace dgr::prim {

namespace {
enum Tag : std::uint32_t {
  kTagCollect = 0x60,  // word0 = token
  kTagDirect = 0x61,   // word0 = payload, word1 = user tag
};
}  // namespace

std::vector<std::uint64_t> global_collect(
    ncc::Network& net, const TreeOverlay& tree, Slot leader,
    const std::vector<std::uint8_t>& has,
    const std::vector<std::uint64_t>& token) {
  ncc::ScopedRounds scope(net, "global_collect");
  const std::size_t n = net.n();
  DGR_CHECK(has.size() == n && token.size() == n);
  DGR_CHECK(tree.member(leader));

  // Make the leader's ID common knowledge over the tree (leader announces
  // itself; the token climbs to the root and floods down).
  broadcast_from_leader(net, tree, leader, net.id_of(leader),
                        /*value_is_id=*/true);

  std::vector<ncc::SendQueue> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s) queues.emplace_back(kTagCollect);
  const NodeId leader_id = net.id_of(leader);

  // Frontier: token holders seed it (they know they contribute), receipt
  // keeps the leader on it, and queue backlog / in-flight sends hold a
  // contributor on it until its token is known-delivered.
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (has[s]) net.wake(s);
  }
  // Only the leader's body appends, and a slot's body runs on exactly one
  // worker per round, so no synchronization is needed.
  std::vector<std::uint64_t> collected;
  const std::uint64_t start = net.stats().rounds;
  net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    // First round: each holder queues its token for the leader, whose ID
    // the broadcast taught it (one lookup per holder).
    if (net.stats().rounds == start && has[s]) {
      queues[s].push(ctx.ref_of(leader_id),
                     ncc::make_msg(kTagCollect).push(token[s]));
    }
    if (s == leader) {
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() != kTagCollect) continue;
        collected.push_back(m.word(0));
      }
    }
    queues[s].pump(ctx);
    if (!queues[s].idle()) ctx.wake();
  });
  return collected;
}

std::uint64_t direct_exchange(ncc::Network& net,
                              const std::vector<std::vector<DirectSend>>& batch,
                              const DirectDeliver& on_deliver) {
  ncc::ScopedRounds scope(net, "direct_exchange");
  const std::size_t n = net.n();
  DGR_CHECK(batch.size() == n);

  std::vector<ncc::SendQueue> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s) queues.emplace_back(kTagDirect);

  // Frontier: senders seed it, receipt carries delivery, backlog holds a
  // sender on it until its batch is known-delivered.
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (!batch[s].empty()) net.wake(s);
  }
  const std::uint64_t start = net.stats().rounds;
  return net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    // First round: the batch names destinations by ID; resolve each once
    // and queue the whole batch.
    if (net.stats().rounds == start) {
      for (const auto& d : batch[s]) {
        auto m = ncc::make_msg(kTagDirect);
        if (d.payload_is_id) m.push_id(d.payload); else m.push(d.payload);
        m.push(d.user_tag);
        queues[s].push(ctx.ref_of(d.dst), m);
      }
    }
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagDirect) continue;
      on_deliver(s, m.src(), static_cast<std::uint32_t>(m.word(1)), m.word(0));
    }
    queues[s].pump(ctx);
    if (!queues[s].idle()) ctx.wake();
  });
}

}  // namespace dgr::prim
