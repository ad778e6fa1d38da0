#include "primitives/skiplinks.h"

#include <algorithm>

#include "util/check.h"
#include "util/math_util.h"

namespace dgr::prim {

namespace {
enum Tag : std::uint32_t {
  kTagSkipFwd = 0x30,  // word0 = receiver's new forward link
  kTagSkipBwd = 0x31,  // word0 = receiver's new backward link
};
}  // namespace

SkipOverlay build_skiplinks(ncc::Network& net, const PathOverlay& path) {
  ncc::ScopedRounds scope(net, "skiplinks/build");
  const std::size_t n = net.n();
  const std::size_t members = path.order.size();
  SkipOverlay skip;
  const int levels = std::max(1, ceil_log2(std::max<std::size_t>(members, 2)));
  skip.fwd.assign(static_cast<std::size_t>(levels),
                  std::vector<NodeRef>(n));
  skip.bwd = skip.fwd;
  if (members == 0) return skip;

  for (Slot s = 0; s < n; ++s) {
    if (!path.member(s)) continue;
    skip.fwd[0][s] = path.succ[s];
    skip.bwd[0][s] = path.pred[s];
  }

  // Level k from level k-1: my 2^k-ahead is my 2^(k-1)-ahead's 2^(k-1)-ahead;
  // that node pushes the link to me (and symmetrically for behind). One send
  // round per level plus a trailing drain round.
  //
  // Frontier: every member starts (level-0 links are initial path
  // knowledge); afterwards a node sends at level k only if both its level
  // k-1 links exist, which for k >= 2 means both announcements reached it
  // last round — so receipt keeps exactly the needed nodes active, and the
  // 2^k nodes that fell off the path ends drop out of the frontier.
  wake_members(net, path);
  for (int k = 1; k <= levels; ++k) {
    net.round_active([&](ncc::Ctx& ctx) {
      const Slot s = ctx.slot();
      if (!path.member(s)) return;
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagSkipFwd) skip.fwd[k - 1][s] = m.ref_word(0);
        else if (m.tag() == kTagSkipBwd) skip.bwd[k - 1][s] = m.ref_word(0);
      }
      if (k >= levels) return;  // final iteration only drains
      const NodeRef ahead = skip.fwd[k - 1][s];
      const NodeRef behind = skip.bwd[k - 1][s];
      if (!behind || !ahead) return;
      ncc::Message to_behind = ncc::make_msg(kTagSkipFwd);
      ctx.send(behind, ctx.push_id(to_behind, ahead));
      ncc::Message to_ahead = ncc::make_msg(kTagSkipBwd);
      ctx.send(ahead, ctx.push_id(to_ahead, behind));
    });
  }
  return skip;
}

bool validate_skiplinks(const ncc::Network& net, const PathOverlay& path,
                        const SkipOverlay& skip) {
  const auto& order = path.order;
  const std::size_t len = order.size();
  for (int k = 0; k < skip.levels(); ++k) {
    const std::size_t d = std::size_t{1} << k;
    for (std::size_t i = 0; i < len; ++i) {
      const Slot s = order[i];
      const NodeRef want_fwd =
          i + d < len ? net.ref_of(order[i + d]) : NodeRef{};
      const NodeRef want_bwd = i >= d ? net.ref_of(order[i - d]) : NodeRef{};
      if (skip.fwd[static_cast<std::size_t>(k)][s] != want_fwd) return false;
      if (skip.bwd[static_cast<std::size_t>(k)][s] != want_bwd) return false;
    }
  }
  return true;
}

}  // namespace dgr::prim
