// O(1) NodeId -> Slot resolution.
//
// Protocols address nodes by NodeRef handles, which carry the slot, so the
// NCC0 send path never comes here. The map serves the referee
// (Network::slot_of), NCC1 code that addresses IDs from all_ids, and the
// NodeId entry points (Ctx::send(NodeId, ...), bare ID words, Ctx::ref_of),
// each lookup of which is counted in NetStats::id_resolutions. Two layouts:
//   - dense: when IDs are exactly 1..n in slot order (Config::random_ids ==
//     false, and any future contiguous assignment), find() is a subtraction;
//   - hashed: otherwise an open-addressing table with linear probing and a
//     Fibonacci multiply-shift hash, sized to a power of two at load factor
//     <= 0.5. Entries are 8 bytes — a truncated 32-bit key tag plus the
//     slot — so the whole table is half the size of a (u64 key, slot)
//     layout and stays cache-resident far longer; a tag match is verified
//     against the authoritative slot -> ID array (a dense, slot-indexed
//     lookup) before it is trusted, which also disambiguates genuine
//     32-bit tag collisions.
// The table is built once at Network construction and never mutated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ncc/ids.h"

namespace dgr::ncc {

class IdMap {
 public:
  /// (Re)build from the slot -> ID table. IDs must be unique and non-zero.
  /// `ids` must stay alive and unchanged for the lifetime of the map (the
  /// Network owns both and never mutates the ID assignment).
  void build(const std::vector<NodeId>& ids) {
    ids_ = &ids;
    n_ = ids.size();
    dense_ = true;
    for (std::size_t s = 0; s < n_; ++s) {
      if (ids[s] != static_cast<NodeId>(s + 1)) {
        dense_ = false;
        break;
      }
    }
    if (dense_) {
      table_.clear();
      shift_ = 64;
      return;
    }
    std::size_t cap = 16;
    shift_ = 60;
    while (cap < 2 * n_) {
      cap <<= 1;
      --shift_;
    }
    table_.assign(cap, Entry{0, kNoSlot});
    const std::size_t mask = cap - 1;
    for (std::size_t s = 0; s < n_; ++s) {
      std::size_t h = probe_start(ids[s]);
      while (table_[h].slot != kNoSlot) h = (h + 1) & mask;
      table_[h] = {static_cast<std::uint32_t>(ids[s]), static_cast<Slot>(s)};
    }
  }

  /// Slot holding `id`, or kNoSlot when no node has that ID.
  Slot find(NodeId id) const {
    if (id == kNoNode) return kNoSlot;
    if (dense_) {
      return id <= n_ ? static_cast<Slot>(id - 1) : kNoSlot;
    }
    const std::vector<NodeId>& ids = *ids_;
    const std::uint32_t tag = static_cast<std::uint32_t>(id);
    const std::size_t mask = table_.size() - 1;
    std::size_t h = probe_start(id);
    while (table_[h].slot != kNoSlot) {
      // Tag hit: confirm against the authoritative slot -> ID array (two
      // known IDs may share the low 32 bits; a wrong slot must not leak).
      if (table_[h].tag == tag && ids[table_[h].slot] == id)
        return table_[h].slot;
      h = (h + 1) & mask;
    }
    return kNoSlot;
  }

 private:
  // Truncated key + slot in 8 bytes; kNoSlot marks an empty entry.
  struct Entry {
    std::uint32_t tag;  // low 32 bits of the NodeId
    Slot slot;
  };

  std::size_t probe_start(NodeId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  const std::vector<NodeId>* ids_ = nullptr;
  std::size_t n_ = 0;
  bool dense_ = true;
  unsigned shift_ = 64;           // 64 - log2(table size)
  std::vector<Entry> table_;
};

}  // namespace dgr::ncc
