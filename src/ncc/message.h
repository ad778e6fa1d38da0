// NCC message: a tag plus at most four words, each standing for one
// O(log n)-bit field (an ID, a position, a degree, ...). Words flagged in
// id_mask are node IDs: delivering the message teaches them to the receiver,
// exactly like carrying an address inside a packet. An ID word appended
// from a NodeRef (Ctx::push_id) also remembers the handle's slot, so the
// send writes the record's slot trailer without resolving the ID.
#pragma once

#include <array>
#include <cstdint>

#include "ncc/ids.h"
#include "util/check.h"

namespace dgr::ncc {

/// Maximum payload words per message (message size O(log n) bits).
inline constexpr std::size_t kMaxWords = 4;

namespace wire {
void decode(const std::uint64_t* rec, NodeId src_id, bool trailered,
            Message& out);
}  // namespace wire

struct Message {
  std::uint32_t tag = 0;
  std::uint8_t size = 0;      ///< number of words in use
  std::uint8_t id_mask = 0;   ///< bit i set => words[i] is a NodeId
  std::array<std::uint64_t, kMaxWords> words{};
  NodeId src = kNoNode;       ///< filled in by the engine on send

  /// Appends a plain word; returns *this for chaining.
  Message& push(std::uint64_t w) {
    DGR_CHECK_MSG(size < kMaxWords, "message payload overflow");
    words[size++] = w;
    return *this;
  }

  /// Appends a NodeId word; the receiver will learn this ID on delivery.
  /// The send resolves it (one IdMap lookup); Ctx::push_id(m, ref) appends
  /// a handle instead and resolves nothing.
  Message& push_id(NodeId id) { return push_id_slot(id, kNoSlot); }

  std::uint64_t word(std::size_t i) const {
    DGR_CHECK(i < size);
    return words[i];
  }

  /// Signed view of a word (positions may be sentinel -1).
  std::int64_t sword(std::size_t i) const {
    return static_cast<std::int64_t>(word(i));
  }

  NodeId id_word(std::size_t i) const {
    DGR_CHECK(i < size && (id_mask & (1u << i)));
    return static_cast<NodeId>(words[i]);
  }

 private:
  friend class Ctx;
  friend void wire::decode(const std::uint64_t*, NodeId, bool, Message&);

  Message& push_id_slot(NodeId id, Slot s) {
    DGR_CHECK_MSG(size < kMaxWords, "message payload overflow");
    id_mask = static_cast<std::uint8_t>(id_mask | (1u << size));
    refs_[size] = s;
    words[size++] = id;
    return *this;
  }

  /// refs_[i]: the slot of ID word i when it was appended from a handle (or
  /// decoded from a trailered record), else kNoSlot and the send resolves
  /// the word. Private, so a word and its slot can never disagree.
  std::array<Slot, kMaxWords> refs_{kNoSlot, kNoSlot, kNoSlot, kNoSlot};
};

/// Convenience constructor.
inline Message make_msg(std::uint32_t tag) {
  Message m;
  m.tag = tag;
  return m;
}

/// The wire-record codec shared by the outbox arenas, the delivery
/// pipeline, and the inbox arena (the receive side stores records verbatim;
/// see InboxView in network.h). A record is `2 + size (+ trailer)` 64-bit
/// words:
///   word 0 — routing: src slot | dst slot << 32
///   word 1 — payload header: tag | size << 32 | id_mask << 40
///   words 2 .. 2+size-1 — the payload words actually in use
///   then, on learning (non-clique) networks only, one trailer word per
///   id_mask bit: that payload ID's slot, known at send time so the
///   delivery-side learn pass never touches the IdMap.
/// A one-word message costs 24 bytes instead of sizeof(Message) == 64, and
/// records are written strictly sequentially; readers walk a cursor, except
/// a block-parallel delivery, which reads each record through the bucket
/// entry (offset, length, destination) its body task wrote (arena.h).
namespace wire {

inline constexpr std::size_t kHeaderWords = 2;

inline std::uint64_t routing_word(Slot src, Slot dst) {
  return static_cast<std::uint64_t>(src) | (static_cast<std::uint64_t>(dst) << 32);
}
inline std::uint64_t header_word(const Message& m) {
  return static_cast<std::uint64_t>(m.tag) |
         (static_cast<std::uint64_t>(m.size) << 32) |
         (static_cast<std::uint64_t>(m.id_mask) << 40);
}

inline Slot src(const std::uint64_t* rec) { return static_cast<Slot>(rec[0]); }
inline Slot dst(const std::uint64_t* rec) {
  return static_cast<Slot>(rec[0] >> 32);
}
/// Rewrite the destination in place (deliver() tombstones dropped records
/// with kNoSlot).
inline void retarget(std::uint64_t* rec, Slot dst) {
  rec[0] = (rec[0] & 0xffffffffULL) | (static_cast<std::uint64_t>(dst) << 32);
}
inline std::uint32_t tag(const std::uint64_t* rec) {
  return static_cast<std::uint32_t>(rec[1]);
}
inline std::uint8_t size(const std::uint64_t* rec) {
  return static_cast<std::uint8_t>(rec[1] >> 32);
}
inline std::uint8_t id_mask(const std::uint64_t* rec) {
  return static_cast<std::uint8_t>(rec[1] >> 40);
}
/// Popcount of a mask below 2^kMaxWords (Ctx::send rejects higher bits),
/// read from a 16-nibble table: without -mpopcnt, std::popcount compiles to
/// a libgcc call on every record walk.
inline std::size_t trailer_words(std::uint8_t id_mask) {
  static_assert(kMaxWords <= 4, "the nibble table covers 4-bit masks");
  return static_cast<std::size_t>((0x4332322132212110ULL >> (4 * id_mask)) &
                                  15u);
}
/// Total 64-bit words the record occupies; `trailered` says whether this
/// network's records carry the ID-slot trailer (learning networks do,
/// clique networks skip learning and stay trailerless).
inline std::size_t record_words(const std::uint64_t* rec, bool trailered) {
  const std::uint64_t h = rec[1];
  std::size_t w = kHeaderWords + ((h >> 32) & 0xffu);
  if (trailered)
    w += trailer_words(static_cast<std::uint8_t>((h >> 40) & 0xffu));
  return w;
}
/// The ID-word slot trailer (valid only on trailered records).
inline const std::uint64_t* trailer(const std::uint64_t* rec) {
  return rec + kHeaderWords + ((rec[1] >> 32) & 0xffu);
}

/// Materialize a full Message from its record. Only the `size` payload
/// words in use are written; Message::word()/id_word() bound every read by
/// size, so the bytes past it are never observable — skipping the zero-fill
/// keeps 24B of stores per one-word message off the delivery path. A
/// trailered record also hands its ID words' slots to the Message, so
/// re-sending it (a forwarding queue, a bounce retry) resolves nothing.
inline void decode(const std::uint64_t* rec, NodeId src_id, bool trailered,
                   Message& out) {
  const std::uint64_t h = rec[1];
  out.tag = static_cast<std::uint32_t>(h);
  const auto sz = static_cast<std::uint8_t>(h >> 32);
  out.size = sz;
  const auto mask = static_cast<std::uint8_t>(h >> 40);
  out.id_mask = mask;
  for (std::uint8_t w = 0; w < sz; ++w) out.words[w] = rec[kHeaderWords + w];
  if (trailered && mask != 0) {
    const std::uint64_t* tp = rec + kHeaderWords + sz;
    for (std::uint8_t w = 0; w < sz; ++w) {
      if (mask & (1u << w)) out.refs_[w] = static_cast<Slot>(*tp++);
    }
  }
  out.src = src_id;
}

}  // namespace wire

}  // namespace dgr::ncc
