// Skip-link (hyperring) overlay over a path with known positions.
//
// After positions are known (Corollary 2), pointer doubling gives every
// member the IDs of the members 2^k positions ahead/behind, for all k, in
// O(log n) rounds — these are exactly the level links of the paper's level
// structure L (level-k paths connect nodes 2^k apart). The overlay is the
// substrate for range multicast (range_cast.h), our realization of the
// paper's §3.2.3 group-communication primitives.
#pragma once

#include <cstdint>
#include <vector>

#include "ncc/network.h"
#include "primitives/path.h"

namespace dgr::prim {

struct SkipOverlay {
  /// fwd[k][s] = the member 2^k positions after s (null if none); bwd[k][s]
  /// symmetrically behind. Level count = max(1, ceil_log2(len)). Handles
  /// are 4 bytes, so a level costs 4n bytes per direction.
  std::vector<std::vector<NodeRef>> fwd;
  std::vector<std::vector<NodeRef>> bwd;

  int levels() const { return static_cast<int>(fwd.size()); }
};

/// Builds the skip overlay by pointer doubling; deterministic, O(log n)
/// rounds, capacity-safe (runs under OverflowPolicy::kStrict).
SkipOverlay build_skiplinks(ncc::Network& net, const PathOverlay& path);

/// Referee check: every link points to the member exactly 2^k away.
bool validate_skiplinks(const ncc::Network& net, const PathOverlay& path,
                        const SkipOverlay& skip);

}  // namespace dgr::prim
