// Core identifier types for the NCC model.
//
// A NodeId is the node's globally-unique address (the paper's "IP address"),
// drawn from [1, n^c]. A Slot is the simulator's dense internal index; it is
// referee-side bookkeeping that protocols must never treat as knowledge.
// A NodeRef is the engine-minted handle for an ID a node holds: it names a
// slot, but only the engine can make one, so protocol code carries it as an
// opaque address and never turns a bare number into it.
#pragma once

#include <cstdint>
#include <limits>

namespace dgr::ncc {

using NodeId = std::uint64_t;
/// Sentinel "no node"; valid IDs are >= 1.
inline constexpr NodeId kNoNode = 0;

using Slot = std::uint32_t;
inline constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

class Network;
class Ctx;
class MessageRef;
struct Message;

/// Handle to a node whose ID the holder learned through the engine: its
/// initial successor, itself, a message sender, or an ID word a message
/// carried. Four bytes (the slot), so overlays of handles are half the size
/// of overlays of IDs. Sending to a NodeRef skips the NodeId -> Slot lookup
/// but not the KT0 check: the sender must still know the ID, so a handle
/// copied from another node's state is rejected exactly like its ID would
/// be. The default value is the null handle (no node).
class NodeRef {
 public:
  constexpr NodeRef() = default;
  explicit constexpr operator bool() const { return slot_ != kNoSlot; }
  friend constexpr bool operator==(NodeRef a, NodeRef b) {
    return a.slot_ == b.slot_;
  }

 private:
  friend class Network;
  friend class Ctx;
  friend class MessageRef;
  friend struct Message;
  explicit constexpr NodeRef(Slot s) : slot_(s) {}
  Slot slot_ = kNoSlot;
};

/// Position of a node along a path overlay (0-based).
using Position = std::int64_t;
inline constexpr Position kNoPosition = -1;

}  // namespace dgr::ncc
