// Range multicast over the skip overlay — our realization of the paper's
// §3.2.3 group multicast (Theorem 7) for the group shapes its algorithms
// actually use: contiguous position ranges of a path.
//
// A task multicasts one payload word to every member whose position lies in
// [lo, hi]. The token first routes greedily toward the range (halving the
// distance each hop, O(log n) hops), then disseminates by binary splitting
// (each holder hands coverage halves to its skip neighbours, O(log range)
// rounds). Total messages per task = O(range + log n); each node relays at
// most O(log n) messages per task it participates in. Concurrent tasks
// share the round budget; oversubscription is absorbed by bounce + retry
// (Las-Vegas, like the paper's randomized primitives).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ncc/network.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"

namespace dgr::prim {

struct RangeCastTask {
  Position lo = 0;   ///< first target position (inclusive)
  Position hi = 0;   ///< last target position (inclusive)
  std::uint32_t user_tag = 0;
  std::uint64_t payload = 0;  ///< plain payload word (unused with payload_ref)
  /// When set, the payload is this node's ID, sent as an ID word: receivers
  /// learn it, and every relay forwards the handle without a lookup.
  ncc::NodeRef payload_ref;
};

/// Delivery callback: invoked once per (member-of-range, task) pair, inside
/// that member's round body. `payload` is the ID for payload_ref tasks.
using RangeDeliver =
    std::function<void(Slot receiver, std::uint32_t user_tag,
                       std::uint64_t payload)>;

/// Runs all tasks to completion. tasks[s] are the tasks initiated by the
/// node in slot s (it must know its own position; lo/hi/payload are
/// node-local knowledge). Returns the number of rounds consumed.
std::uint64_t range_multicast(ncc::Network& net, const PathOverlay& path,
                              const SkipOverlay& skip,
                              const std::vector<std::vector<RangeCastTask>>& tasks,
                              const RangeDeliver& on_deliver);

}  // namespace dgr::prim
