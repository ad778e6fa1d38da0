#include "primitives/range_cast.h"

#include "ncc/send_queue.h"
#include "util/check.h"
#include "util/math_util.h"

namespace dgr::prim {

namespace {

constexpr std::uint32_t kTagRangeToken = 0x40;

// Token wire format: words = [lo, hi, payload, user_tag]; the payload word
// is an ID word for payload_ref tasks.
ncc::Message encode(const ncc::Ctx& ctx, Position lo, Position hi,
                    const RangeCastTask& t) {
  auto m = ncc::make_msg(kTagRangeToken);
  m.push(static_cast<std::uint64_t>(lo));
  m.push(static_cast<std::uint64_t>(hi));
  if (t.payload_ref) ctx.push_id(m, t.payload_ref); else m.push(t.payload);
  m.push(t.user_tag);
  return m;
}

}  // namespace

std::uint64_t range_multicast(ncc::Network& net, const PathOverlay& path,
                              const SkipOverlay& skip,
                              const std::vector<std::vector<RangeCastTask>>& tasks,
                              const RangeDeliver& on_deliver) {
  ncc::ScopedRounds scope(net, "range_cast");
  const std::size_t n = net.n();
  DGR_CHECK(tasks.size() == n);
  const auto members = static_cast<Position>(path.order.size());

  std::vector<ncc::SendQueue> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s) queues.emplace_back(kTagRangeToken);

  // Resolve a token held at position p covering [lo, hi]: deliver locally if
  // in range, then hand off coverage pieces along skip links. Every emitted
  // piece is self-describing, so relays need no per-task state.
  auto resolve = [&](ncc::Ctx& ctx, Position lo, Position hi,
                     const RangeCastTask& t) {
    const Slot s = ctx.slot();
    const Position p = path.pos[s];
    DGR_CHECK(p != kNoPosition && lo <= hi && hi < members && lo >= 0);
    auto link_fwd = [&](int k) { return skip.fwd[static_cast<std::size_t>(k)][s]; };
    auto link_bwd = [&](int k) { return skip.bwd[static_cast<std::size_t>(k)][s]; };

    if (p < lo) {
      // Route toward the range head, halving the remaining distance.
      const int k = floor_log2(static_cast<std::uint64_t>(lo - p));
      const NodeRef via = link_fwd(k);
      DGR_CHECK(via);
      queues[s].push(via, encode(ctx, lo, hi, t));
      return;
    }
    if (p > hi) {
      const int k = floor_log2(static_cast<std::uint64_t>(p - hi));
      const NodeRef via = link_bwd(k);
      DGR_CHECK(via);
      queues[s].push(via, encode(ctx, lo, hi, t));
      return;
    }

    // In range: deliver, then split both sides into power-of-two handoffs.
    on_deliver(s, t.user_tag,
               t.payload_ref ? ctx.id_of(t.payload_ref) : t.payload);
    Position c = hi;
    while (c > p) {  // right side (p, c]
      const int k = floor_log2(static_cast<std::uint64_t>(c - p));
      const Position q = p + (Position{1} << k);
      const NodeRef via = link_fwd(k);
      DGR_CHECK(via);
      queues[s].push(via, encode(ctx, q, c, t));
      c = q - 1;
    }
    c = lo;
    while (c < p) {  // left side [c, p)
      const int k = floor_log2(static_cast<std::uint64_t>(p - c));
      const Position r = p - (Position{1} << k);
      const NodeRef via = link_bwd(k);
      DGR_CHECK(via);
      queues[s].push(via, encode(ctx, c, r, t));
      c = r + 1;
    }
  };

  // Frontier: the initiators seed it (they know they hold tasks); token
  // receipt carries it; a node with queue backlog or in-flight sends holds
  // itself on it. The route drains when no token is anywhere in motion —
  // "active set empty" replaces the old atomic busy counter and its
  // all-slot rescans.
  net.clear_active();
  for (Slot s = 0; s < n; ++s) {
    if (!tasks[s].empty()) net.wake(s);
  }
  const std::uint64_t start = net.stats().rounds;
  return net.run_active([&](ncc::Ctx& ctx) {
    const Slot s = ctx.slot();
    if (net.stats().rounds == start) {
      for (const auto& t : tasks[s]) resolve(ctx, t.lo, t.hi, t);
    }
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() != kTagRangeToken) continue;
      RangeCastTask t;
      t.lo = m.sword(0);
      t.hi = m.sword(1);
      t.payload = m.word(2);
      if (m.id_mask() & (1u << 2)) t.payload_ref = m.ref_word(2);
      t.user_tag = static_cast<std::uint32_t>(m.word(3));
      resolve(ctx, t.lo, t.hi, t);
    }
    queues[s].pump(ctx);
    if (!queues[s].idle()) ctx.wake();
  });
}

}  // namespace dgr::prim
