// Distributed sorting of a path by locally-known keys (paper §3.1.2,
// Theorem 3).
//
// The paper sorts in O(log^3 n) rounds by merging sorted sub-paths over the
// BBST. We realize the same interface with a Batcher odd-even merge-sort
// network executed on the position space: every comparator of the network
// pairs positions exactly 2^k apart, so partners are reachable over the skip
// overlay; each stage is one compare-exchange round. The network is padded
// to the next power of two with virtual +inf records — an easy invariant
// shows those never move, so comparators touching them are skipped. Total:
// O(log^2 n) deterministic rounds + O(1) rewiring rounds, strictly within
// the paper's O~(1)-per-phase budget (see DESIGN.md substitutions).
//
// Output: every node knows its rank (position in sorted order) and the IDs
// of its sorted-path neighbours; a fresh skip overlay is built on the new
// path for follow-up range operations.
#pragma once

#include <cstdint>
#include <vector>

#include "ncc/network.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"

namespace dgr::prim {

struct SortResult {
  PathOverlay path;  ///< sorted path (pred/succ/pos per node + referee order)
  SkipOverlay skip;  ///< skip links over the sorted path
};

/// Sorts the members of `path` by (key, ID) — ascending, or descending keys
/// with ascending-ID tie-break when `descending` is set. `key[s]` is node
/// s's locally-known key. Requires path.pos filled (build_bbst) and the
/// matching skip overlay. Deterministic and capacity-safe.
SortResult distributed_sort(ncc::Network& net, const PathOverlay& path,
                            const SkipOverlay& skip,
                            const std::vector<std::uint64_t>& key,
                            bool descending);

/// One stage of the Batcher odd-even merge-sort network over n_pow2
/// positions, as a table entry: every quantity the per-node role test needs
/// is precomputed, and since p and k are powers of two the test is masks
/// and shifts (no division). Exposed for the schedule oracle test.
struct BatcherStage {
  std::uint64_t k = 0;     ///< comparator stride (a power of two)
  std::uint64_t j0 = 0;    ///< k % p: lower ends sit at [j0, j0+k) mod 2k
  std::uint64_t mask = 0;  ///< 2k - 1 (x % 2k == x & mask)
  unsigned block_shift = 0;  ///< log2(2p): a comparator stays in a 2p block
  unsigned level = 0;        ///< log2(k): skip-overlay level of the partner
};

/// The stage list for n_pow2 (a power of two) positions, in network order.
std::vector<BatcherStage> batcher_stages(std::uint64_t n_pow2);

/// Is x the lower end of a comparator of stage `st`? (The standard
/// iterative formulation pairs (j+i, j+i+k) with j = k mod p (mod 2k),
/// i in [0, k), both ends in a common 2p block.) The caller guarantees the
/// upper end x + k exists.
inline bool batcher_lower_end(const BatcherStage& st, std::uint64_t x) {
  // r - j0 wraps to a huge value when r < j0, so one compare tests
  // r in [j0, j0 + k).
  return ((x & st.mask) - st.j0) < st.k &&
         (x >> st.block_shift) == ((x + st.k) >> st.block_shift);
}

/// Role of position pos < members in stage `st`: 0 = idle, 1 = lower end,
/// 2 = upper end. Comparators reaching past the last member (the virtual
/// +inf padding) are idle.
inline std::uint8_t batcher_role(const BatcherStage& st, std::uint64_t pos,
                                 std::uint64_t members) {
  if (pos + st.k < members && batcher_lower_end(st, pos)) return 1;
  if (pos >= st.k && batcher_lower_end(st, pos - st.k)) return 2;
  return 0;
}

}  // namespace dgr::prim
