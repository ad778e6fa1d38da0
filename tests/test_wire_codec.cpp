// Wire-codec boundary cases, round-tripped through the full
// encode → deliver → learn datapath (the wire record layout is documented
// at ncc::wire in message.h; the receive side stores records verbatim and
// decodes them lazily, so these tests pin the codec at its edges: maximum
// payload, full ID mask, zero payload, and bounced maximum-size records —
// under both overflow policies).
//
// Also the kOvfBit regression suite: the bit-31 oversubscription flag on
// the engine's inbox cursors shares a 32-bit word with the unflagged word
// cursor; deliver() pass 2 guards the extents before stamping any cursor.
// The tiny-capacity massive-fan-in tests drive that path as hard as a unit
// test can.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ncc/message.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::Message;
using ncc::NodeId;
using ncc::Slot;

ncc::Config codec_cfg(ncc::OverflowPolicy policy, bool clique) {
  ncc::Config cfg;
  cfg.seed = 77;
  cfg.overflow = policy;
  if (clique) cfg.initial = ncc::InitialKnowledge::kClique;
  return cfg;
}

// A max-size, full-id_mask message round-trips with every field intact, on
// a learning (NCC0, trailered records) network: the receiver must observe
// tag, size, id_mask, all four ID words, and the sender ID, and must learn
// every forwarded ID, and the owning decode (materialize) must agree.
void max_size_full_mask_roundtrip(ncc::OverflowPolicy policy) {
  ncc::Network net(8, codec_cfg(policy, /*clique=*/false));
  const auto& order = net.path_order();
  // Path-initial knowledge: order[i] knows order[i+1]'s ID. The head also
  // knows itself; send a message carrying every ID it legally can.
  const Slot head = order[0];
  const Slot succ = order[1];
  const NodeId head_id = net.id_of(head);
  const NodeId succ_id = net.id_of(succ);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != head) return;
    auto m = make_msg(0xABCD);
    m.push_id(head_id).push_id(succ_id).push_id(head_id).push_id(succ_id);
    ASSERT_EQ(m.size, ncc::kMaxWords);
    ASSERT_EQ(m.id_mask, 0x0Fu);
    ctx.send(succ_id, m);
  });
  bool checked = false;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != succ) return;
    checked = true;
    const auto view = ctx.inbox_view();
    ASSERT_EQ(view.size(), 1u);
    for (const auto m : view) {
      EXPECT_EQ(m.tag(), 0xABCDu);
      EXPECT_EQ(m.size(), ncc::kMaxWords);
      EXPECT_EQ(m.id_mask(), 0x0Fu);
      EXPECT_EQ(m.src(), head_id);
      EXPECT_EQ(m.id_word(0), head_id);
      EXPECT_EQ(m.id_word(1), succ_id);
      EXPECT_EQ(m.id_word(2), head_id);
      EXPECT_EQ(m.id_word(3), succ_id);
      const Message full = m.materialize();
      EXPECT_EQ(full.tag, 0xABCDu);
      EXPECT_EQ(full.size, ncc::kMaxWords);
      EXPECT_EQ(full.id_mask, 0x0Fu);
      EXPECT_EQ(full.src, head_id);
      EXPECT_EQ(full.id_word(3), succ_id);
    }
  });
  ASSERT_TRUE(checked);
  // Delivery-time learning consumed the record trailer: the receiver now
  // knows the sender (= head) — it already knew itself.
  EXPECT_TRUE(net.node_knows(succ, head_id));
}

TEST(WireCodec, MaxSizeFullIdMaskRoundTripBounce) {
  max_size_full_mask_roundtrip(ncc::OverflowPolicy::kBounce);
}
TEST(WireCodec, MaxSizeFullIdMaskRoundTripStrict) {
  max_size_full_mask_roundtrip(ncc::OverflowPolicy::kStrict);
}

// Zero-payload messages are legal (a tag is a signal); the record is pure
// header and the variable-stride inbox walk must step over it correctly
// even when it is interleaved with max-size records.
void zero_payload_roundtrip(ncc::OverflowPolicy policy) {
  ncc::Network net(16, codec_cfg(policy, /*clique=*/true));
  const NodeId dst = net.id_of(0);
  net.round([&](Ctx& ctx) {
    // Interleave strides: odd slots send empty records, even slots (but 0)
    // send max-size ones, all to slot 0.
    if (ctx.slot() == 0) return;
    if (ctx.slot() % 2 == 1) {
      ctx.send(dst, make_msg(0xE0 + ctx.slot()));
    } else {
      auto m = make_msg(0xF0 + ctx.slot());
      m.push(1).push(2).push(3).push(4);
      ctx.send(dst, m);
    }
  });
  bool checked = false;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) return;
    checked = true;
    ASSERT_EQ(ctx.inbox_view().size(), 15u);
    std::size_t empties = 0;
    std::size_t fulls = 0;
    for (const auto m : ctx.inbox_view()) {
      if (m.size() == 0) {
        ++empties;
        EXPECT_EQ(m.id_mask(), 0u);
        EXPECT_EQ(m.tag() & ~0xFu, 0xE0u);
      } else {
        ++fulls;
        ASSERT_EQ(m.size(), ncc::kMaxWords);
        EXPECT_EQ(m.word(3), 4u);
      }
    }
    EXPECT_EQ(empties, 8u);
    EXPECT_EQ(fulls, 7u);
  });
  ASSERT_TRUE(checked);
}

TEST(WireCodec, ZeroPayloadRoundTripBounce) {
  zero_payload_roundtrip(ncc::OverflowPolicy::kBounce);
}
TEST(WireCodec, ZeroPayloadRoundTripStrict) {
  // 15 arrivals < capacity 16, so strict mode accepts the same traffic.
  zero_payload_roundtrip(ncc::OverflowPolicy::kStrict);
}

// Bounced max-size messages: the bounce path decodes from the same wire
// records, and Ctx::bounced() must return full-fidelity payloads.
TEST(WireCodec, BouncedMaxSizeMessagesKeepFullPayload) {
  ncc::Network net(64, codec_cfg(ncc::OverflowPolicy::kBounce, true));
  const auto cap = static_cast<std::size_t>(net.capacity());
  const NodeId hot = net.id_of(0);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0) return;
    auto m = make_msg(0xB0);
    // Clique: id-marked words need not resolve to real nodes, so a full
    // mask with payload values exercises the widest bounced record.
    m.push_id(0x1111 * ctx.slot()).push(2).push_id(0x3333).push(ctx.slot());
    ctx.send(hot, m);
  });
  std::size_t bounced_seen = 0;
  net.round([&](Ctx& ctx) {
    for (const auto& b : ctx.bounced()) {
      ++bounced_seen;
      EXPECT_EQ(ctx.id_of(b.dst), hot);
      EXPECT_EQ(b.msg.tag, 0xB0u);
      ASSERT_EQ(b.msg.size, ncc::kMaxWords);
      EXPECT_EQ(b.msg.id_mask, 0x05u);
      EXPECT_EQ(b.msg.word(1), 2u);
      EXPECT_EQ(b.msg.word(3), static_cast<std::uint64_t>(ctx.slot()));
      EXPECT_EQ(b.msg.src, ctx.id());
    }
  });
  EXPECT_EQ(bounced_seen, 63u - cap);
  EXPECT_EQ(net.stats().messages_bounced, 63u - cap);
  EXPECT_EQ(net.stats().messages_delivered, cap);
}

TEST(WireCodec, StrictModeRejectsMaxSizeOverflow) {
  ncc::Network net(64, codec_cfg(ncc::OverflowPolicy::kStrict, true));
  const NodeId hot = net.id_of(0);
  EXPECT_THROW(
      {
        net.round([&](Ctx& ctx) {
          if (ctx.slot() == 0) return;
          auto m = make_msg(1);
          m.push(1).push(2).push(3).push(4);
          ctx.send(hot, m);
        });
        net.round([](Ctx&) {});
      },
      CheckError);
}

// kOvfBit regression: an artificially tiny receive capacity under massive
// max-size fan-in keeps a destination's cursor flagged with bit 31 for many
// consecutive rounds while the word-granular cursor arithmetic runs right
// next to the flag. The transcript must stay exact (capacity accepted,
// the rest bounced, every bounce full-fidelity) and identical across
// thread counts and scheduling modes.
TEST(WireCodec, TinyCapacityMassiveFanInExactAccounting) {
  constexpr std::size_t kN = 96;
  constexpr int kRounds = 6;
  auto run = [&](unsigned threads, bool sparse) {
    ncc::Config cfg = codec_cfg(ncc::OverflowPolicy::kBounce, true);
    cfg.capacity_factor = 0;  // capacity = min_capacity
    cfg.min_capacity = 1;     // one accepted message per round
    cfg.threads = threads;
    cfg.sparse_rounds = sparse;
    ncc::Network net(kN, cfg);
    EXPECT_EQ(net.capacity(), 1);
    const NodeId hot = net.id_of(0);
    // Per-slot digests: bodies run concurrently, so cross-slot accumulation
    // order is not deterministic — fold slot-major after the run instead.
    std::vector<std::uint64_t> inbox_digest(kN, 0);
    std::vector<std::uint64_t> bounce_digest(kN, 0);
    net.wake_all();
    for (int r = 0; r < kRounds; ++r) {
      net.round_active([&](Ctx& ctx) {
        if (ctx.slot() == 0) {
          auto& in = inbox_digest[0];
          for (const auto m : ctx.inbox_view()) {
            in = hash_mix(hash_mix(in, m.src(), m.word(0)), m.word(3));
          }
        }
        auto& bo = bounce_digest[ctx.slot()];
        for (const auto& b : ctx.bounced()) {
          EXPECT_EQ(b.msg.size, ncc::kMaxWords);
          bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.word(3));
        }
        ctx.wake();  // every node keeps flooding
        auto m = make_msg(0xF1);
        m.push(ctx.slot()).push(2).push(3).push(0xC0FFEE + ctx.slot());
        ctx.send(hot, m);
      });
      // Every round: kN sends at the hot slot, 1 accepted, kN - 1 bounced.
      EXPECT_EQ(net.stats().messages_delivered,
                static_cast<std::uint64_t>(r + 1));
    }
    EXPECT_EQ(net.stats().messages_sent,
              static_cast<std::uint64_t>(kN) * kRounds);
    EXPECT_EQ(net.stats().messages_bounced,
              static_cast<std::uint64_t>(kN - 1) * kRounds);
    EXPECT_EQ(net.stats().messages_dropped, 0u);
    std::uint64_t digest = 0;
    for (Slot s = 0; s < kN; ++s)
      digest = hash_mix(digest, inbox_digest[s], bounce_digest[s]);
    return digest;
  };
  const std::uint64_t ref = run(1, /*sparse=*/true);
  EXPECT_EQ(ref, run(4, true));
  EXPECT_EQ(ref, run(8, true));
  EXPECT_EQ(ref, run(1, /*sparse=*/false));
  EXPECT_EQ(ref, run(8, false));
}

// Same fan-in shape in strict mode: the engine must throw before any
// delivery event, even at the tiny-capacity boundary.
TEST(WireCodec, TinyCapacityStrictThrowsBeforeDelivery) {
  ncc::Config cfg = codec_cfg(ncc::OverflowPolicy::kStrict, true);
  cfg.capacity_factor = 0;
  cfg.min_capacity = 1;
  ncc::Network net(32, cfg);
  const NodeId hot = net.id_of(5);
  EXPECT_THROW(
      {
        net.round([&](Ctx& ctx) {
          if (ctx.slot() != 5) ctx.send(hot, make_msg(1).push(7));
        });
      },
      CheckError);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

}  // namespace
}  // namespace dgr
