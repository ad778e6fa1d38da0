// Path overlays (paper §3.1).
//
// A PathOverlay is the distributed "linear arrangement" the paper's
// algorithms march over: each member node knows the IDs of its predecessor
// and successor (held as NodeRef handles), and (after a BBST build) its
// 0-based position. The overlay
// struct stores that per-node state indexed by simulator slot, plus a
// referee-side `order` vector used only for verification.
#pragma once

#include <cstdint>
#include <vector>

#include "ncc/network.h"

namespace dgr::prim {

using ncc::kNoNode;
using ncc::kNoPosition;
using ncc::kNoSlot;
using ncc::NodeId;
using ncc::NodeRef;
using ncc::Position;
using ncc::Slot;

struct PathOverlay {
  // --- node-local state (entry s belongs to the node in slot s) ---
  std::vector<NodeRef> pred;       ///< predecessor (null at the head)
  std::vector<NodeRef> succ;       ///< successor (null at the tail)
  std::vector<Position> pos;       ///< 0-based position; kNoPosition = unset
  std::vector<std::uint8_t> is_member;  ///< membership flag (sub-paths)

  // --- referee-side (verification only; nodes never read this) ---
  std::vector<Slot> order;         ///< position -> slot

  std::size_t length() const { return order.size(); }
  bool member(Slot s) const { return is_member[s] != 0; }
};

/// Converts the directed initial knowledge path Gk into an undirected,
/// ordered path in one round (each node sends its ID to its successor;
/// paper §3.1). The head is the node that receives no message.
PathOverlay undirect_initial_path(ncc::Network& net);

/// Referee helper: builds the overlay bookkeeping for a path whose order is
/// already known to the orchestrator (e.g. after a distributed sort). The
/// per-node pred/succ/pos fields must have been established in-protocol; this
/// only fills the referee `order`/membership vectors for verification.
PathOverlay referee_path(const ncc::Network& net,
                         const std::vector<Slot>& order);

/// Referee check: pred/succ/pos are mutually consistent with `order`.
bool validate_path(const ncc::Network& net, const PathOverlay& path);

/// Seed the engine's active set with every path member, dropping whatever
/// frontier a previous phase left behind (the in-model reading: each member
/// knows from its own state that the phase starts now). The standard
/// preamble of every frontier-driven primitive that begins with an
/// all-member round.
inline void wake_members(ncc::Network& net, const PathOverlay& path) {
  net.clear_active();
  for (const Slot s : path.order) net.wake(s);
}

}  // namespace dgr::prim
