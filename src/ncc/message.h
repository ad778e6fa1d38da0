// NCC message: a tag plus at most four words, each standing for one
// O(log n)-bit field (an ID, a position, a degree, ...). Words flagged in
// id_mask are node IDs: delivering the message teaches them to the receiver,
// exactly like carrying an address inside a packet.
#pragma once

#include <array>
#include <cstdint>

#include "ncc/ids.h"
#include "util/check.h"

namespace dgr::ncc {

/// Maximum payload words per message (message size O(log n) bits).
inline constexpr std::size_t kMaxWords = 4;

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
  Message& push_id(NodeId id) {
    DGR_CHECK_MSG(size < kMaxWords, "message payload overflow");
    id_mask = static_cast<std::uint8_t>(id_mask | (1u << size));
    words[size++] = id;
    return *this;
  }

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
///   id_mask bit: that payload ID's slot, resolved at send time so the
///   delivery-side learn pass never touches the IdMap.
/// A one-word message costs 24 bytes instead of sizeof(Message) == 48, and
/// records are written and re-read strictly sequentially — no per-record
/// offsets exist anywhere; every consumer walks a cursor.
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
/// Header for the one-word fast path (Ctx::send1 / send1_id): size == 1 and
/// id_mask == (is_id ? 1 : 0), precomputed so the encoder is three stores.
inline std::uint64_t header1_word(std::uint32_t tag, bool is_id) {
  return static_cast<std::uint64_t>(tag) | (std::uint64_t{1} << 32) |
         (static_cast<std::uint64_t>(is_id ? 1u : 0u) << 40);
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
/// keeps 24B of stores per one-word message off the delivery path.
inline void decode(const std::uint64_t* rec, NodeId src_id, Message& out) {
  const std::uint64_t h = rec[1];
  out.tag = static_cast<std::uint32_t>(h);
  const auto sz = static_cast<std::uint8_t>(h >> 32);
  out.size = sz;
  out.id_mask = static_cast<std::uint8_t>(h >> 40);
  for (std::uint8_t w = 0; w < sz; ++w) out.words[w] = rec[kHeaderWords + w];
  out.src = src_id;
}

}  // namespace wire

}  // namespace dgr::ncc
