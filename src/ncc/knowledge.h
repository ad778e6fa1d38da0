// Per-node ID-knowledge tracking (the KT0/KT1 distinction).
//
// A node may address a message to v only if it knows v's ID. Knowledge grows
// monotonically: initial knowledge, sender IDs of delivered messages, and ID
// words carried in payloads.
//
// Representation: a sparse-to-dense hybrid keyed by the simulator's Slot
// (sends name nodes by NodeRef handles, which carry the slot). Most nodes
// in the NCC protocols only ever learn O(log n) IDs (path neighbours, level
// links, skip links, sort partners), so knowledge starts as a small
// open-addressing slot table — 256 bytes per node (kMinCap entries)
// instead of the n/8-byte bitset, which at n = 64Ki kept a 512MB working
// set and made every delivery-time learn a DRAM miss. A node whose table would outgrow the
// bitset is promoted to the dense form (growth is the cold path, out of
// line in knowledge.cpp). The population count is maintained incrementally,
// so size() stays O(1) and the referee's max_knowledge()/total_knowledge()
// accounting is a linear scan of counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ncc/ids.h"

namespace dgr::ncc {

class Knowledge {
 public:
  /// Size for an n-node network; forgets everything known.
  void init(std::size_t n) {
    n_ = n;
    all_ = false;
    dense_ = false;
    known_ = 0;
    tab_.assign(initial_cap(n), kEmpty);
    words_.clear();
    words_.shrink_to_fit();
  }

  /// NCC1: knows every ID; the set is not materialized.
  void set_all() {
    all_ = true;
    known_ = 0;
    tab_.clear();
    tab_.shrink_to_fit();
    words_.clear();
    words_.shrink_to_fit();
  }

  bool knows_all() const { return all_; }

  bool knows_slot(Slot s) const {
    if (all_) return true;
    if (dense_) return ((words_[s >> 6] >> (s & 63)) & 1u) != 0;
    const std::size_t mask = tab_.size() - 1;
    std::size_t i = probe_start(s, mask);
    for (;;) {
      const std::uint32_t v = tab_[i];
      if (v == s) return true;
      if (v == kEmpty) return false;
      i = (i + 1) & mask;
    }
  }

  void learn_slot(Slot s) {
    if (all_) return;
    if (dense_) {
      std::uint64_t& w = words_[s >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      known_ += static_cast<std::size_t>((w & bit) == 0);
      w |= bit;
      return;
    }
    const std::size_t mask = tab_.size() - 1;
    std::size_t i = probe_start(s, mask);
    for (;;) {
      const std::uint32_t v = tab_[i];
      if (v == s) return;
      if (v == kEmpty) break;
      i = (i + 1) & mask;
    }
    tab_[i] = s;
    ++known_;
    // Keep the load factor under 1/2; growth may promote to the bitset.
    if (known_ * 2 >= tab_.size()) grow();
  }

  /// Number of distinct IDs known; n must be supplied for the NCC1 case.
  std::size_t size(std::size_t n) const { return all_ ? n : known_; }

  /// Dense form only: the bitset words, or nullptr while the knowledge is
  /// sparse (or NCC1). The dense form never changes back, so a batched
  /// learn that finds the bitset may set bits straight into it and report
  /// the newly known count through add_known().
  std::uint64_t* dense_words() { return dense_ ? words_.data() : nullptr; }
  void add_known(std::size_t gained) { known_ += gained; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;  // > any valid Slot
  // 64 entries (256B/node) from the start: the overlay-construction
  // protocols teach a node ~2 log n IDs, and starting smaller made the
  // engine spend measurable time rehashing tables mid-simulation.
  static constexpr std::size_t kMinCap = 64;
  // ...except at huge n, where the eager tables dominate setup RSS (256MB
  // before any message moves at n = 10^6). There bootstrap at 16 entries
  // and let the cold grow path carry a node to 64 by its ~8th learned ID:
  // a couple of extra rehashes per node that actually learns, invisible
  // next to the protocol's own work, and transcript-neutral — table
  // geometry is not observable (membership, size, and learn semantics are
  // identical).
  static constexpr std::size_t kMinCapHuge = 16;
  static constexpr std::size_t kHugeN = std::size_t{1} << 18;

  static std::size_t initial_cap(std::size_t n) {
    return n >= kHugeN ? kMinCapHuge : kMinCap;
  }

  static std::size_t probe_start(Slot s, std::size_t mask) {
    return (static_cast<std::uint32_t>(s) * 2654435761u) & mask;
  }

  /// Cold path: double the table, or promote to the dense bitset once the
  /// doubled table would cost at least as much memory.
  void grow();

  bool all_ = false;
  bool dense_ = false;
  std::size_t known_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> tab_;    // sparse: open-addressing slot table
  std::vector<std::uint64_t> words_;  // dense: bit s => knows slot s
};

}  // namespace dgr::ncc
