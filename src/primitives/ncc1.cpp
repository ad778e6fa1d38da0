#include "primitives/ncc1.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace dgr::prim {

namespace {

std::vector<Slot> slots_by_id(const ncc::Network& net) {
  std::vector<Slot> by_id(net.n());
  std::iota(by_id.begin(), by_id.end(), Slot{0});
  std::sort(by_id.begin(), by_id.end(), [&](Slot a, Slot b) {
    return net.id_of(a) < net.id_of(b);
  });
  return by_id;
}

}  // namespace

TreeOverlay common_knowledge_tree(const ncc::Network& net) {
  DGR_CHECK_MSG(net.is_clique(), "requires NCC1 (common ID knowledge)");
  const std::size_t n = net.n();
  const auto by_id = slots_by_id(net);
  TreeOverlay tree;
  tree.nodes.assign(n, {});
  for (std::size_t r = 0; r < n; ++r) {
    const Slot s = by_id[r];
    auto& nd = tree.nodes[s];
    nd.in_tree = true;
    if (r > 0) nd.parent = net.ref_of(by_id[(r - 1) / 2]);
    if (2 * r + 1 < n) nd.left = net.ref_of(by_id[2 * r + 1]);
    if (2 * r + 2 < n) nd.right = net.ref_of(by_id[2 * r + 2]);
  }
  tree.root = by_id[0];
  int h = 0;
  for (std::size_t c = n; c > 0; c /= 2) ++h;
  tree.height = h;
  return tree;
}

PathOverlay common_knowledge_path(const ncc::Network& net) {
  DGR_CHECK_MSG(net.is_clique(), "requires NCC1 (common ID knowledge)");
  const std::size_t n = net.n();
  const auto by_id = slots_by_id(net);
  PathOverlay path;
  path.pred.assign(n, NodeRef{});
  path.succ.assign(n, NodeRef{});
  path.pos.assign(n, kNoPosition);
  path.is_member.assign(n, 1);
  path.order = by_id;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot s = by_id[i];
    path.pos[s] = static_cast<Position>(i);
    if (i > 0) path.pred[s] = net.ref_of(by_id[i - 1]);
    if (i + 1 < n) path.succ[s] = net.ref_of(by_id[i + 1]);
  }
  return path;
}

}  // namespace dgr::prim
