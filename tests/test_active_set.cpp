// Active-set (sparse) round scheduling: transcript equivalence and wake-set
// semantics.
//
// The engine contract (network.h): a primitive driven through round_active
// produces a bit-for-bit identical transcript whether the scheduler
// dispatches only the active slots (Config::sparse_rounds = true, the
// default) or every slot (false, the dense reference mode), for any worker
// thread count. These tests pin that equivalence for every frontier-driven
// primitive — broadcast, aggregation, argmax, the Batcher sort, BBST
// construction, range multicast, and the collection utilities — across
// thread counts and seeds, plus the wake-set edge cases (wake with an empty
// inbox, wake of an already-active slot, bounce-driven reactivation).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "primitives/bbst.h"
#include "primitives/broadcast.h"
#include "primitives/collection.h"
#include "primitives/path.h"
#include "primitives/range_cast.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;
using ncc::NodeId;
using ncc::Slot;

constexpr std::size_t kN = 193;  // odd, non-power-of-two on purpose

ncc::Network make_net(bool sparse, unsigned threads, std::uint64_t seed) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.sparse_rounds = sparse;
  cfg.threads = threads;
  return ncc::Network(kN, cfg);
}

/// Full observable state of a finished run: the shared engine fingerprint
/// (testing.h) plus an order-sensitive digest the workload accumulates.
struct Fingerprint {
  testing::NetFingerprint net;
  std::uint64_t digest = 0;

  bool operator==(const Fingerprint& o) const {
    return net == o.net && digest == o.digest;
  }
};

Fingerprint seal(const ncc::Network& net, std::uint64_t digest) {
  return {testing::net_fingerprint(net), digest};
}

std::uint64_t digest_words(std::uint64_t acc,
                           const std::vector<std::uint64_t>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) acc = hash_mix(acc, i, v[i]);
  return acc;
}

// Each workload runs a primitive end to end and folds everything a referee
// can observe into the digest.
using Workload = std::uint64_t (*)(ncc::Network&);

std::uint64_t wl_broadcast(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  std::uint64_t acc = digest_words(1, prim::broadcast_from_root(
                                          net, tree, 0xB00Cu));
  const Slot leader = path.order[path.order.size() / 3];
  acc = digest_words(acc, prim::broadcast_from_leader(
                              net, tree, leader, net.id_of(leader), true));
  acc = hash_mix(acc, prim::announce_median(net, tree, path), 0);
  return acc;
}

std::uint64_t wl_aggregate(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  std::vector<std::uint64_t> v(net.n());
  for (Slot s = 0; s < net.n(); ++s) v[s] = (s * 37u) % 101u;
  std::uint64_t acc = 1;
  acc = hash_mix(acc, prim::aggregate_and_broadcast(net, tree, v,
                                                    prim::comb_sum), 0);
  acc = hash_mix(acc, prim::aggregate_to_root(net, tree, v, prim::comb_max),
                 1);
  const prim::ArgmaxResult am = prim::aggregate_argmax(net, tree, v);
  acc = hash_mix(acc, am.key, am.id);
  const prim::PrefixSums ps = prim::tree_prefix_sum(net, tree, v);
  acc = digest_words(acc, ps.exclusive);
  acc = digest_words(acc, ps.subtree);
  return acc;
}

std::uint64_t wl_bbst(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  EXPECT_TRUE(prim::validate_tree(net, tree, path, true));
  prim::TreeOverlay warm = prim::build_warmup_tree(net, path);
  EXPECT_TRUE(prim::validate_tree(net, warm, path, false));
  std::uint64_t acc = 1;
  for (Slot s = 0; s < net.n(); ++s) {
    acc = hash_mix(acc, net.id_of(tree.nodes[s].parent),
                   net.id_of(tree.nodes[s].left));
    acc = hash_mix(acc, net.id_of(tree.nodes[s].right),
                   static_cast<std::uint64_t>(tree.nodes[s].inorder));
    acc = hash_mix(acc, net.id_of(warm.nodes[s].parent),
                   net.id_of(warm.nodes[s].left));
  }
  return acc;
}

std::uint64_t wl_sort(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::build_bbst(net, path);
  const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
  EXPECT_TRUE(prim::validate_skiplinks(net, path, skip));
  std::vector<std::uint64_t> key(net.n());
  Rng rng(99);
  for (auto& k : key) k = rng.below(64);  // many ties
  const prim::SortResult res =
      prim::distributed_sort(net, path, skip, key, true);
  EXPECT_TRUE(prim::validate_path(net, res.path));
  std::uint64_t acc = 1;
  for (const Slot s : res.path.order) acc = hash_mix(acc, s, key[s]);
  return acc;
}

std::uint64_t wl_range_cast(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::build_bbst(net, path);
  const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
  const auto members = static_cast<prim::Position>(path.order.size());
  std::vector<std::vector<prim::RangeCastTask>> tasks(net.n());
  // A handful of overlapping ranges from scattered initiators.
  for (int i = 0; i < 5; ++i) {
    const Slot s = path.order[static_cast<std::size_t>(i) * 31 % kN];
    prim::RangeCastTask t;
    t.lo = (i * 17) % (members / 2);
    t.hi = t.lo + members / 3;
    if (t.hi >= members) t.hi = members - 1;
    t.user_tag = 0x600u + static_cast<std::uint32_t>(i);
    t.payload_ref = net.ref_of(s);
    tasks[s].push_back(t);
  }
  // on_deliver runs inside round bodies, which may execute on pool workers;
  // accumulate per receiver (each slot's body is serial) and fold after.
  std::vector<std::uint64_t> per_slot(net.n(), 0);
  prim::range_multicast(net, path, skip, tasks,
                        [&](prim::Slot receiver, std::uint32_t tag,
                            std::uint64_t payload) {
                          per_slot[receiver] =
                              hash_mix(per_slot[receiver], tag, payload);
                        });
  return digest_words(1, per_slot);
}

std::uint64_t wl_collection(ncc::Network& net) {
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  std::vector<std::uint8_t> has(net.n(), 0);
  std::vector<std::uint64_t> token(net.n(), 0);
  for (Slot s = 0; s < net.n(); s += 3) {
    has[s] = 1;
    token[s] = s * 7u;
  }
  const Slot leader = path.order.back();
  std::uint64_t acc = 1;
  // global_collect may interleave arrivals differently only if transcripts
  // differ; digest order-sensitively.
  for (const std::uint64_t t :
       prim::global_collect(net, tree, leader, has, token))
    acc = hash_mix(acc, t, 0);
  // KT0: a node may only address IDs it knows — its tree parent qualifies.
  std::vector<std::vector<prim::DirectSend>> batch(net.n());
  for (Slot s = 0; s < net.n(); s += 5) {
    const NodeId parent = net.id_of(tree.nodes[s].parent);
    if (parent != ncc::kNoNode) batch[s].push_back({parent, 0x61u, s, false});
  }
  std::vector<std::uint64_t> per_slot(net.n(), 0);
  prim::direct_exchange(net, batch,
                        [&](prim::Slot receiver, NodeId src,
                            std::uint32_t tag, std::uint64_t payload) {
                          per_slot[receiver] = hash_mix(per_slot[receiver],
                                                        src ^ tag, payload);
                        });
  return digest_words(acc, per_slot);
}

struct Named {
  const char* name;
  Workload fn;
};
const Named kWorkloads[] = {
    {"broadcast", &wl_broadcast},   {"aggregate", &wl_aggregate},
    {"bbst", &wl_bbst},             {"batcher_sort", &wl_sort},
    {"range_cast", &wl_range_cast}, {"collection", &wl_collection},
};

// The matrix: for every primitive workload and seed, the sparse run with
// one thread is the reference; dense reference mode and every thread count
// must reproduce it bit for bit.
TEST(ActiveSetEquivalence, SparseMatchesDenseForEveryPrimitive) {
  for (const auto& wl : kWorkloads) {
    for (const std::uint64_t seed : {11ull, 2026ull}) {
      Fingerprint ref;
      {
        auto net = make_net(/*sparse=*/true, /*threads=*/1, seed);
        ref = seal(net, wl.fn(net));
      }
      for (const unsigned threads : {1u, 4u, 8u}) {
        for (const bool sparse : {true, false}) {
          if (sparse && threads == 1) continue;  // the reference itself
          auto net = make_net(sparse, threads, seed);
          const Fingerprint got = seal(net, wl.fn(net));
          EXPECT_TRUE(ref == got)
              << wl.name << " seed=" << seed << " threads=" << threads
              << " sparse=" << sparse << ": transcript diverged (rounds "
              << got.net.stats.rounds << " vs " << ref.net.stats.rounds
              << ", delivered " << got.net.stats.messages_delivered
              << " vs " << ref.net.stats.messages_delivered << ")";
        }
      }
    }
  }
}

// Primitives must stay inside the capacity budget under sparse scheduling
// exactly as they did densely: the strict-overflow network throws on any
// violation.
TEST(ActiveSetEquivalence, DeterministicPrimitivesStayStrictUnderSparse) {
  ncc::Config cfg;
  cfg.seed = 7;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  ncc::Network net(kN, cfg);
  prim::PathOverlay path = prim::undirect_initial_path(net);
  prim::TreeOverlay tree = prim::build_bbst(net, path);
  const prim::SkipOverlay skip = prim::build_skiplinks(net, path);
  std::vector<std::uint64_t> v(net.n(), 2);
  prim::aggregate_and_broadcast(net, tree, v, prim::comb_sum);
  prim::distributed_sort(net, path, skip, v, true);
}

// --- wake-set edge cases -------------------------------------------------

TEST(ActiveSetWake, WokenSlotRunsWithEmptyInbox) {
  auto net = testing::make_ncc0(16, 5);
  net.wake(3);
  EXPECT_EQ(net.active_count(), 1u);
  std::vector<Slot> ran;
  std::size_t inbox_seen = 99;
  net.round_active([&](Ctx& ctx) {
    ran.push_back(ctx.slot());
    inbox_seen = ctx.inbox_view().size();
  });
  EXPECT_EQ(ran, std::vector<Slot>{3});
  EXPECT_EQ(inbox_seen, 0u);
  EXPECT_FALSE(net.has_active());  // no traffic, no wake: frontier drained
}

TEST(ActiveSetWake, MessagedSlotAlreadyWokenRunsOnce) {
  auto net = testing::make_ncc1(16, 6);
  const NodeId target = net.id_of(4);
  net.round([&](Ctx& ctx) {
    if (ctx.slot() == 0) ctx.send(target, make_msg(1).push(42));
  });
  // Slot 4 is active by receipt; waking it again must not double-run it.
  net.wake(4);
  net.wake(4);
  EXPECT_EQ(net.active_count(), 1u);
  int runs = 0;
  std::size_t got = 0;
  net.round_active([&](Ctx& ctx) {
    ASSERT_EQ(ctx.slot(), 4u);
    ++runs;
    got = ctx.inbox_view().size();
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(got, 1u);
}

TEST(ActiveSetWake, SelfWakeCarriesSlotToNextRoundOnly) {
  auto net = testing::make_ncc0(8, 7);
  net.wake(2);
  int runs = 0;
  net.round_active([&](Ctx& ctx) {
    ++runs;
    if (ctx.round() == 0) ctx.wake();  // stay active exactly one more round
  });
  EXPECT_TRUE(net.has_active());
  net.round_active([&](Ctx& ctx) {
    EXPECT_EQ(ctx.slot(), 2u);
    ++runs;
  });
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(net.has_active());
}

TEST(ActiveSetWake, BounceHoldsSenderOnFrontier) {
  ncc::Config cfg;
  cfg.seed = 9;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(64, cfg);
  const auto cap = static_cast<std::size_t>(net.capacity());
  const NodeId hot = net.id_of(0);
  // Every other node sends one message to slot 0: arrivals exceed capacity,
  // so some senders get bounces and must come back to retry.
  net.round([&](Ctx& ctx) {
    if (ctx.slot() != 0) ctx.send(hot, make_msg(2));
  });
  ASSERT_EQ(net.stats().messages_bounced, 63 - cap);
  std::size_t bounced_seen = 0;
  std::vector<Slot> ran;
  net.round_active([&](Ctx& ctx) {
    ran.push_back(ctx.slot());
    bounced_seen += ctx.bounced().size();
  });
  // Frontier = the receiver (slot 0) plus every bounced sender.
  EXPECT_EQ(ran.size(), 1 + (63 - cap));
  EXPECT_EQ(bounced_seen, 63 - cap);
}

TEST(ActiveSetWake, RefereeWakeSurvivesDenseRoundAndClearActiveDropsIt) {
  auto net = testing::make_ncc0(8, 8);
  net.wake(5);
  net.round([](Ctx&) {});  // a dense round must not eat the pending wake
  EXPECT_TRUE(net.has_active());
  net.clear_active();
  EXPECT_FALSE(net.has_active());
  net.wake_all();
  EXPECT_EQ(net.active_count(), 8u);
  net.clear_active();
}

TEST(ActiveSetWake, CrashedSlotIsSkippedEvenIfWoken) {
  auto net = testing::make_ncc0(8, 10);
  net.crash(3);
  net.wake(3);
  net.wake(4);
  std::vector<Slot> ran;
  net.round_active([&](Ctx& ctx) { ran.push_back(ctx.slot()); });
  EXPECT_EQ(ran, std::vector<Slot>{4});
}

}  // namespace
}  // namespace dgr
