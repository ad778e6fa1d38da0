// Reproduces the paper's Figures 1 and 2 on the canonical 8-node path.
//
//   $ ./figures
//
// Figure 1: the warm-up balanced binary tree built by recursive
// head-extraction and odd/even decomposition.
// Figure 2: the level structure L (levels L0..L3 of the pointer-doubling
// construction) and the balanced binary *search* tree produced by the
// controlled BFS (Algorithm 1) — its inorder traversal is the original
// path 1..8.
//
// Exits 1 if either tree or the level structure fails its referee check.
#include <functional>
#include <iostream>
#include <string>

#include "ncc/network.h"
#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"

namespace {

void print_tree(const dgr::ncc::Network& net,
                const dgr::prim::TreeOverlay& tree) {
  std::function<void(dgr::ncc::Slot, std::string, bool, bool)> rec =
      [&](dgr::ncc::Slot s, std::string prefix, bool last, bool root) {
        const auto& nd = tree.nodes[s];
        std::cout << prefix << (root ? "" : (last ? "`-- " : "|-- "))
                  << net.id_of(s) << "\n";
        const std::string child_prefix =
            prefix + (root ? "" : (last ? "    " : "|   "));
        if (nd.left && nd.right) {
          rec(net.slot_of(nd.left), child_prefix, false, false);
          rec(net.slot_of(nd.right), child_prefix, true, false);
        } else if (nd.left) {
          rec(net.slot_of(nd.left), child_prefix, true, false);
        } else if (nd.right) {
          rec(net.slot_of(nd.right), child_prefix, true, false);
        }
      };
  rec(tree.root, "", true, true);
}

dgr::ncc::Network make_fixed_net() {
  dgr::ncc::Config cfg;
  cfg.shuffle_path = false;  // path order 1..8 as in the paper
  cfg.random_ids = false;
  cfg.overflow = dgr::ncc::OverflowPolicy::kStrict;
  return dgr::ncc::Network(8, cfg);
}

/// Prints a failed referee check; returns whether it passed.
bool check(bool ok, const char* what) {
  if (!ok) std::cerr << "figures: " << what << " failed validation\n";
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  // ---- Figure 1: warm-up balanced binary tree -------------------------
  {
    auto net = make_fixed_net();
    auto path = dgr::prim::undirect_initial_path(net);
    const auto tree = dgr::prim::build_warmup_tree(net, path);
    std::cout << "Figure 1 — warm-up balanced binary tree on Gk = 1..8\n";
    std::cout << "(r takes its neighbour a as left child and a's other\n"
                 " neighbour b as right child, then the path splits)\n\n";
    print_tree(net, tree);
    std::cout << "\nheight = " << tree.height << " (bound ceil(log 8)+1 = 4)\n\n";
    ok &= check(dgr::prim::validate_tree(net, tree, path, false),
                "Figure 1 warm-up tree");
  }

  // ---- Figure 2: level structure L + BBST -----------------------------
  {
    auto net = make_fixed_net();
    auto path = dgr::prim::undirect_initial_path(net);
    // The level structure is exactly the skip overlay: level k links pair
    // nodes 2^k apart. Print each level's paths.
    auto tree = dgr::prim::build_bbst(net, path);
    const auto skip = dgr::prim::build_skiplinks(net, path);

    std::cout << "Figure 2 — level structure L on Gk = 1..8\n";
    for (int k = 0; k < skip.levels(); ++k) {
      const std::size_t step = std::size_t{1} << k;
      std::cout << "  L" << k << ": ";
      for (std::size_t start = 0; start < step && start < 8; ++start) {
        std::cout << "[";
        for (std::size_t p = start; p < 8; p += step) {
          std::cout << net.id_of(path.order[p]);
          if (p + step < 8) std::cout << "-";
        }
        std::cout << "] ";
      }
      std::cout << "\n";
    }

    std::cout << "\nBalanced binary search tree (controlled BFS output):\n\n";
    print_tree(net, tree);
    std::cout << "\ninorder traversal:";
    // Inorder = sorted by the computed positions.
    std::vector<dgr::ncc::NodeId> inorder(8);
    for (dgr::ncc::Slot s = 0; s < 8; ++s)
      inorder[static_cast<std::size_t>(path.pos[s])] = net.id_of(s);
    for (const auto id : inorder) std::cout << ' ' << id;
    std::cout << "  (= the original path: Theorem 1)\n";
    std::cout << "height = " << tree.height << " (bound 4)\n";
    ok &= check(dgr::prim::validate_skiplinks(net, path, skip),
                "Figure 2 level structure");
    ok &= check(dgr::prim::validate_tree(net, tree, path, true),
                "Figure 2 search tree");
    for (std::size_t i = 0; i < inorder.size(); ++i)
      ok &= check(inorder[i] == i + 1, "Figure 2 inorder traversal");
  }
  return ok ? 0 : 1;
}
