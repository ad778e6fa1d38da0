// Balanced binary (search) trees over a path overlay (paper §3.1.1).
//
// build_bbst implements Theorem 1: the level structure L (each level keeps
// the odd/even-position subpaths of its parent level) followed by the
// controlled BFS of Algorithm 1. The result is a binary tree of height at
// most ceil(log2 n) + 1 whose inorder traversal is exactly the input path —
// so inorder numbering (computed here with a distributed prefix-sum pass)
// gives every node its path position (Corollary 2).
//
// build_warmup_tree implements the paper's warm-up construction (Figure 1):
// balanced and spanning, but not a search tree.
//
// All constructions are deterministic and respect the NCC capacities (they
// run unchanged under OverflowPolicy::kStrict).
#pragma once

#include <cstdint>
#include <vector>

#include "ncc/network.h"
#include "primitives/path.h"

namespace dgr::prim {

struct TreeOverlay {
  struct Node {
    bool in_tree = false;
    NodeRef parent;  ///< null at the root
    NodeRef left;    ///< null when absent
    NodeRef right;   ///< null when absent
    std::uint64_t subtree_size = 0;
    Position inorder = kNoPosition;
  };
  std::vector<Node> nodes;  ///< per slot
  Slot root = kNoSlot;      ///< referee convenience (the root also knows)
  int height = 0;           ///< referee-computed, for assertions

  bool member(Slot s) const { return nodes[s].in_tree; }
  std::size_t size() const;
};

/// Theorem 1 + Corollary 2: builds the balanced binary search tree over the
/// path members in O(log n) rounds and fills path.pos with each member's
/// 0-based path position.
TreeOverlay build_bbst(ncc::Network& net, PathOverlay& path);

/// Warm-up balanced binary tree (Figure 1): recursive head-extraction and
/// odd/even decomposition. Spanning + balanced, not a search tree.
TreeOverlay build_warmup_tree(ncc::Network& net, const PathOverlay& path);

/// Distributed two-phase prefix sums over the tree's inorder (= path) order.
struct PrefixSums {
  /// exclusive[s] = sum of value[t] over members t strictly before s.
  std::vector<std::uint64_t> exclusive;
  /// subtree[s] = sum of value[t] over the subtree rooted at s.
  std::vector<std::uint64_t> subtree;
};
PrefixSums tree_prefix_sum(ncc::Network& net, const TreeOverlay& tree,
                           const std::vector<std::uint64_t>& value);

/// Referee checks used by tests: binary/spanning/balanced (+ search-order on
/// request: inorder traversal equals path order).
bool validate_tree(const ncc::Network& net, const TreeOverlay& tree,
                   const PathOverlay& path, bool require_search_order);

}  // namespace dgr::prim
