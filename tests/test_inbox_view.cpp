// The zero-copy inbox API: InboxView / MessageRef semantics checked against
// an independent sender-side oracle, and the debug-mode stale-view
// diagnostic (a view aliases engine-owned arenas that the next round
// repacks; dereferencing one after its round must fail loudly in debug
// builds instead of silently reading repacked memory).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "ncc/message.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::InboxView;
using ncc::make_msg;
using ncc::Message;
using ncc::NodeId;
using ncc::Slot;

// One send as the sender issued it: the oracle side of the comparison.
struct Sent {
  NodeId dst;
  Message msg;
};
using SendLog = std::vector<std::vector<Sent>>;  // per source slot

// Every field a receiver read through one MessageRef, captured inside the
// round body (a MessageRef must not outlive it).
struct Seen {
  std::uint32_t tag;
  std::uint8_t size;
  std::uint8_t id_mask;
  NodeId src;
  std::vector<std::uint64_t> words;
  std::vector<std::int64_t> swords;
  std::vector<NodeId> id_words;  // the words flagged in id_mask, in order
  Message materialized;
};

Seen observe(const ncc::MessageRef& m) {
  Seen v{m.tag(), m.size(), m.id_mask(), m.src(), {}, {}, {},
         m.materialize()};
  for (std::size_t w = 0; w < m.size(); ++w) {
    v.words.push_back(m.word(w));
    v.swords.push_back(m.sword(w));
    if (m.id_mask() & (1u << w)) v.id_words.push_back(m.id_word(w));
  }
  return v;
}

bool same_payload(const Message& a, const Message& b) {
  if (a.tag != b.tag || a.size != b.size || a.id_mask != b.id_mask)
    return false;
  for (std::size_t w = 0; w < a.size; ++w)
    if (a.words[w] != b.words[w]) return false;
  return true;
}

// Checks one round's inboxes against the oracle: every message sent last
// round (`log`, per source slot, in send order), minus the ones returned
// through the senders' ctx.bounced() this round, must appear at its
// destination in global source-slot order with every field intact.
void expect_inboxes_match_log(
    const ncc::Network& net, const SendLog& log,
    const std::vector<std::vector<ncc::Bounced>>& bounced,
    const std::vector<std::vector<Seen>>& seen, std::uint64_t& checked) {
  const std::size_t n = net.n();
  std::vector<std::vector<std::pair<Slot, const Sent*>>> expect(n);
  for (Slot s = 0; s < n; ++s) {
    std::vector<std::uint8_t> gone(log[s].size(), 0);
    for (const ncc::Bounced& b : bounced[s]) {
      std::size_t k = 0;
      while (k < log[s].size() &&
             (gone[k] || log[s][k].dst != net.id_of(b.dst) ||
              !same_payload(log[s][k].msg, b.msg)))
        ++k;
      ASSERT_LT(k, log[s].size())
          << "slot " << s << " got a bounce it never sent (tag " << b.msg.tag
          << " to " << net.id_of(b.dst) << ")";
      gone[k] = 1;
    }
    for (std::size_t k = 0; k < log[s].size(); ++k)
      if (!gone[k])
        expect[net.slot_of(log[s][k].dst)].push_back({s, &log[s][k]});
  }
  for (Slot d = 0; d < n; ++d) {
    ASSERT_EQ(seen[d].size(), expect[d].size()) << "inbox of slot " << d;
    for (std::size_t i = 0; i < seen[d].size(); ++i) {
      const Seen& got = seen[d][i];
      const Message& want = expect[d][i].second->msg;
      const NodeId src = net.id_of(expect[d][i].first);
      ASSERT_EQ(got.tag, want.tag) << "slot " << d << " message " << i;
      ASSERT_EQ(got.size, want.size);
      ASSERT_EQ(got.id_mask, want.id_mask);
      ASSERT_EQ(got.src, src);
      std::vector<NodeId> want_ids;
      for (std::size_t w = 0; w < want.size; ++w) {
        ASSERT_EQ(got.words[w], want.words[w]);
        ASSERT_EQ(got.swords[w], static_cast<std::int64_t>(want.words[w]));
        if (want.id_mask & (1u << w)) want_ids.push_back(want.words[w]);
      }
      ASSERT_EQ(got.id_words, want_ids);
      ASSERT_TRUE(same_payload(got.materialized, want));
      ASSERT_EQ(got.materialized.src, src);
      ++checked;
    }
  }
}

// Drives `rounds` rounds of `traffic(ctx, send)` — where `send(to, m)`
// sends and logs — and checks every round's inboxes against the previous
// round's log. Returns the number of messages checked.
template <typename Traffic>
std::uint64_t run_against_sender_log(ncc::Network& net, int rounds,
                                     Traffic traffic) {
  const std::size_t n = net.n();
  SendLog log(n), next(n);
  std::vector<std::vector<ncc::Bounced>> bounced(n);
  std::vector<std::vector<Seen>> seen(n);
  std::uint64_t checked = 0;
  for (int r = 0; r < rounds; ++r) {
    net.round([&](Ctx& ctx) {
      const Slot s = ctx.slot();
      seen[s].clear();
      for (const auto m : ctx.inbox_view()) seen[s].push_back(observe(m));
      bounced[s].assign(ctx.bounced().begin(), ctx.bounced().end());
      next[s].clear();
      traffic(ctx, [&](NodeId to, const Message& m) {
        ctx.send(to, m);
        next[s].push_back({to, m});
      });
    });
    expect_inboxes_match_log(net, log, bounced, seen, checked);
    log.swap(next);
  }
  return checked;
}

// Random mixed traffic (all sizes, mixed id masks, a hot destination that
// oversubscribes so the bounce layout is exercised): for every slot and
// round, the view must show exactly the unbounced sends addressed to it,
// field for field, in source-slot order.
TEST(InboxView, MatchesSenderLogFieldForField) {
  constexpr std::size_t kN = 64;
  ncc::Config cfg;
  cfg.seed = 11;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  const std::uint64_t checked =
      run_against_sender_log(net, 8, [&](Ctx& ctx, auto&& send) {
        const auto ids = ctx.all_ids();
        const int sends = 1 + static_cast<int>(ctx.rng().below(4));
        for (int k = 0; k < sends; ++k) {
          const std::size_t pick = ctx.rng().chance(0.3)
                                       ? 0
                                       : ctx.rng().below(ids.size());
          auto m = make_msg(static_cast<std::uint32_t>(ctx.rng().below(1000)));
          const auto words = ctx.rng().below(ncc::kMaxWords + 1);
          for (std::uint64_t w = 0; w < words; ++w) {
            if (ctx.rng().chance(0.5)) m.push_id(ids[ctx.rng().below(kN)]);
            else m.push(ctx.rng().below(1u << 30));
          }
          send(ids[pick], m);
        }
      });
  EXPECT_GT(checked, 100u);
  EXPECT_GT(net.stats().messages_bounced, 0u);  // the hot slot overflowed
}

// The same oracle on a learning (NCC0) network, where records carry ID-slot
// trailers that the iterator's stride must step over.
TEST(InboxView, MatchesSenderLogOnLearningNetwork) {
  auto net = testing::make_ncc0(32, 5);
  const std::uint64_t checked =
      run_against_sender_log(net, 6, [&](Ctx& ctx, auto&& send) {
        // Forward my successor's ID back to it (it knows itself already):
        // mixed id-word + plain-word records with trailers.
        const ncc::NodeRef succ = ctx.initial_successor();
        if (succ)
          send(ctx.id_of(succ), make_msg(7).push_id(ctx.id_of(succ)).push(ctx.slot()));
      });
  EXPECT_GT(checked, 0u);
}

TEST(InboxView, EmptyInboxYieldsEmptyView) {
  auto net = testing::make_ncc1(4, 9);
  bool checked = false;
  net.round([&](Ctx& ctx) {
    const auto view = ctx.inbox_view();
    EXPECT_EQ(view.size(), 0u);
    EXPECT_TRUE(view.empty());
    EXPECT_TRUE(view.begin() == view.end());
    checked = true;
  });
  EXPECT_TRUE(checked);
}

#ifndef NDEBUG
// Debug builds stamp views with the delivery generation: holding a view
// across the end of its round and dereferencing it must fail a DGR_CHECK
// with the stale-view diagnostic instead of reading repacked memory.
TEST(InboxView, StaleViewDereferenceFiresDiagnostic) {
  auto net = testing::make_ncc1(8, 13);
  const NodeId dst = net.id_of(1);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0) ctx.send(dst, make_msg(3).push(42));
  });
  std::optional<InboxView> leaked;
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 1) return;
    leaked = ctx.inbox_view();
    // In-round use is fine.
    EXPECT_EQ((*leaked->begin()).tag(), 3u);
  });
  ASSERT_TRUE(leaked.has_value());
  // The round ended and the next delivery repacked the arena: the stale
  // view must now refuse dereference (begin() surfaces it immediately).
  net.round([](Ctx&) {});
  EXPECT_THROW((void)*leaked->begin(), CheckError);
}
#else
TEST(InboxView, StaleViewDereferenceFiresDiagnostic) {
  GTEST_SKIP() << "stale-view stamps are compiled out in NDEBUG builds";
}
#endif

}  // namespace
}  // namespace dgr
