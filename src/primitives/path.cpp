#include "primitives/path.h"

#include "util/check.h"

namespace dgr::prim {

namespace {
constexpr std::uint32_t kTagUndirect = 0x10;
}  // namespace

PathOverlay undirect_initial_path(ncc::Network& net) {
  ncc::ScopedRounds scope(net, "path/undirect");
  const std::size_t n = net.n();
  PathOverlay path;
  path.pred.assign(n, NodeRef{});
  path.succ.assign(n, NodeRef{});
  path.pos.assign(n, kNoPosition);
  path.is_member.assign(n, 1);
  path.order = net.path_order();

  // Round 1: every node introduces itself to its initial successor.
  net.round([&](ncc::Ctx& ctx) {
    const NodeRef s = ctx.initial_successor();
    path.succ[ctx.slot()] = s;
    if (s) ctx.send(s, ncc::make_msg(kTagUndirect));
  });
  // Round 2 (processing only): learn the predecessor from the inbox.
  net.round([&](ncc::Ctx& ctx) {
    for (const auto m : ctx.inbox_view()) {
      if (m.tag() == kTagUndirect) path.pred[ctx.slot()] = m.src_ref();
    }
  });
  return path;
}

PathOverlay referee_path(const ncc::Network& net,
                         const std::vector<Slot>& order) {
  PathOverlay path;
  const std::size_t n = net.n();
  path.pred.assign(n, NodeRef{});
  path.succ.assign(n, NodeRef{});
  path.pos.assign(n, kNoPosition);
  path.is_member.assign(n, 0);
  path.order = order;
  for (const Slot s : order) path.is_member[s] = 1;
  return path;
}

bool validate_path(const ncc::Network& net, const PathOverlay& path) {
  const auto& order = path.order;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Slot s = order[i];
    if (!path.member(s)) return false;
    const NodeRef want_pred = i == 0 ? NodeRef{} : net.ref_of(order[i - 1]);
    const NodeRef want_succ =
        i + 1 == order.size() ? NodeRef{} : net.ref_of(order[i + 1]);
    if (path.pred[s] != want_pred) return false;
    if (path.succ[s] != want_succ) return false;
    if (path.pos[s] != kNoPosition &&
        path.pos[s] != static_cast<Position>(i))
      return false;
  }
  return true;
}

}  // namespace dgr::prim
