// Theorem 3 (distributed sorting) — our Batcher-network realization.
#include <gtest/gtest.h>

#include <algorithm>

#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/skiplinks.h"
#include "primitives/sort.h"
#include "testing.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace dgr {
namespace {

struct SortFixture {
  explicit SortFixture(std::size_t n, std::uint64_t seed = 1)
      : net(dgr::testing::make_strict_ncc0(n, seed)),
        path(prim::undirect_initial_path(net)),
        tree(prim::build_bbst(net, path)),
        skip(prim::build_skiplinks(net, path)) {}
  ncc::Network net;
  prim::PathOverlay path;
  prim::TreeOverlay tree;
  prim::SkipOverlay skip;
};

void expect_sorted(const ncc::Network& net, const prim::PathOverlay& sorted,
                   const std::vector<std::uint64_t>& key, bool descending) {
  // The sorted path must be a permutation of the members with monotone keys
  // (ties by ascending ID), and the per-node links must agree.
  ASSERT_TRUE(prim::validate_path(net, sorted));
  for (std::size_t i = 0; i + 1 < sorted.order.size(); ++i) {
    const auto a = sorted.order[i];
    const auto b = sorted.order[i + 1];
    if (key[a] == key[b]) {
      EXPECT_LT(net.id_of(a), net.id_of(b));
    } else if (descending) {
      EXPECT_GT(key[a], key[b]);
    } else {
      EXPECT_LT(key[a], key[b]);
    }
  }
}

class SortSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SortSweep, RandomKeysBothDirections) {
  const auto [n, seed] = GetParam();
  for (const bool descending : {false, true}) {
    SortFixture f(n, seed);
    Rng rng(seed * 131 + descending);
    std::vector<std::uint64_t> key(n);
    for (auto& k : key) k = rng.below(50);  // plenty of duplicates

    const std::uint64_t before = f.net.stats().rounds;
    const prim::SortResult sorted =
        prim::distributed_sort(f.net, f.path, f.skip, key, descending);
    const std::uint64_t rounds = f.net.stats().rounds - before;

    expect_sorted(f.net, sorted.path, key, descending);
    EXPECT_TRUE(prim::validate_skiplinks(f.net, sorted.path, sorted.skip));

    // O(log^2 n) + rewiring.
    const std::uint64_t lg = ceil_log2(std::max<std::size_t>(n, 2));
    EXPECT_LE(rounds, 2 * lg * lg + 8 * lg + 16);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33,
                                         64, 100, 200, 513, 1000),
                       ::testing::Values(1, 2)));

// Reference Batcher schedule with the division formula the stage table
// replaced: stage (p, k) pairs (j+i, j+i+k) with j = k mod p (mod 2k),
// i in [0, k), both ends in a common 2p block.
bool reference_lower_end(std::uint64_t x, std::uint64_t p, std::uint64_t k,
                         std::uint64_t n_pow2) {
  if (x + k >= n_pow2) return false;
  const std::uint64_t r = x % (2 * k);
  const std::uint64_t j0 = k % p;
  if (r < j0 || r >= j0 + k) return false;
  return (x / (2 * p)) == ((x + k) / (2 * p));
}

// Handles take the IdMap off the NCC0 hot path: on a random-ID network the
// set-up (undirect, BBST, skip links), the sort (Batcher stages and
// rewiring) and the skip-link rebuild on the sorted path look up no ID.
TEST(IdResolutions, ZeroAcrossSortAndSkiplinks) {
  SortFixture f(1000, 7);
  ASSERT_TRUE(f.net.config().random_ids);
  EXPECT_EQ(f.net.stats().id_resolutions, 0u);
  Rng rng(11);
  std::vector<std::uint64_t> key(f.net.n());
  for (auto& k : key) k = rng.below(50);  // many ties: the ID tie-break runs
  const std::uint64_t sent = f.net.stats().messages_sent;
  const prim::SortResult sorted =
      prim::distributed_sort(f.net, f.path, f.skip, key, /*descending=*/true);
  expect_sorted(f.net, sorted.path, key, true);
  const prim::SkipOverlay again = prim::build_skiplinks(f.net, sorted.path);
  EXPECT_TRUE(prim::validate_skiplinks(f.net, sorted.path, again));
  EXPECT_GT(f.net.stats().messages_sent, sent);
  EXPECT_EQ(f.net.stats().id_resolutions, 0u);
}

TEST(Sort, StageTableMatchesDivisionFormula) {
  for (std::uint64_t n_pow2 = 1; n_pow2 <= 4096; n_pow2 *= 2) {
    const auto stages = prim::batcher_stages(n_pow2);
    std::size_t si = 0;
    for (std::uint64_t p = 1; p < n_pow2; p *= 2) {
      for (std::uint64_t k = p; k >= 1; k /= 2, ++si) {
        ASSERT_LT(si, stages.size());
        const prim::BatcherStage& st = stages[si];
        ASSERT_EQ(st.k, k);
        ASSERT_EQ(std::uint64_t{1} << st.level, k);
        // Every position, with the full power-of-two membership and with a
        // padded one (the last quarter of positions are +inf padding).
        for (const std::uint64_t members : {n_pow2, n_pow2 - n_pow2 / 4}) {
          for (std::uint64_t x = 0; x < members; ++x) {
            const bool lower =
                reference_lower_end(x, p, k, n_pow2) && x + k < members;
            const bool upper =
                x >= k && reference_lower_end(x - k, p, k, n_pow2);
            ASSERT_FALSE(lower && upper);
            const std::uint8_t want = lower ? 1 : upper ? 2 : 0;
            ASSERT_EQ(prim::batcher_role(st, x, members), want)
                << "n_pow2=" << n_pow2 << " p=" << p << " k=" << k
                << " x=" << x << " members=" << members;
          }
        }
        for (std::uint64_t x = 0; x + k < n_pow2; ++x) {
          ASSERT_EQ(prim::batcher_lower_end(st, x),
                    reference_lower_end(x, p, k, n_pow2))
              << "n_pow2=" << n_pow2 << " p=" << p << " k=" << k
              << " x=" << x;
        }
      }
    }
    EXPECT_EQ(si, stages.size());
  }
}

TEST(Sort, AlreadySortedAndReversed) {
  for (const bool reversed : {false, true}) {
    SortFixture f(128, 77 + reversed);
    std::vector<std::uint64_t> key(128);
    for (std::size_t i = 0; i < f.path.order.size(); ++i) {
      key[f.path.order[i]] = reversed ? 128 - i : i;
    }
    const auto sorted =
        prim::distributed_sort(f.net, f.path, f.skip, key, false);
    expect_sorted(f.net, sorted.path, key, false);
  }
}

TEST(Sort, AllEqualKeysSortById) {
  SortFixture f(100, 5);
  std::vector<std::uint64_t> key(100, 42);
  const auto sorted = prim::distributed_sort(f.net, f.path, f.skip, key, true);
  expect_sorted(f.net, sorted.path, key, true);
}

TEST(Sort, ResortAfterSortUsesNewOverlay) {
  // Sorting twice with different keys exercises sorting a non-initial path.
  SortFixture f(90, 6);
  Rng rng(999);
  std::vector<std::uint64_t> key1(90), key2(90);
  for (auto& k : key1) k = rng.below(30);
  for (auto& k : key2) k = rng.below(30);

  const auto s1 = prim::distributed_sort(f.net, f.path, f.skip, key1, true);
  expect_sorted(f.net, s1.path, key1, true);
  const auto s2 =
      prim::distributed_sort(f.net, s1.path, s1.skip, key2, false);
  expect_sorted(f.net, s2.path, key2, false);
}

TEST(Sort, SubPathSortLeavesOutsidersAlone) {
  SortFixture f(60, 7);
  // Restrict to first 25 positions of the initial path.
  prim::PathOverlay sub;
  const std::size_t keep = 25;
  sub.pred.assign(60, ncc::NodeRef{});
  sub.succ.assign(60, ncc::NodeRef{});
  sub.pos = f.path.pos;
  sub.is_member.assign(60, 0);
  sub.order.assign(f.path.order.begin(), f.path.order.begin() + keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const ncc::Slot s = sub.order[i];
    sub.is_member[s] = 1;
    sub.pred[s] = f.path.pred[s];
    sub.succ[s] = i + 1 < keep ? f.path.succ[s] : ncc::NodeRef{};
  }
  const prim::SkipOverlay sub_skip = prim::build_skiplinks(f.net, sub);

  Rng rng(314);
  std::vector<std::uint64_t> key(60);
  for (auto& k : key) k = rng.below(100);
  const auto sorted = prim::distributed_sort(f.net, sub, sub_skip, key, true);
  EXPECT_EQ(sorted.path.order.size(), keep);
  expect_sorted(f.net, sorted.path, key, true);
  for (ncc::Slot s = 0; s < 60; ++s) {
    if (!sub.member(s)) {
      EXPECT_FALSE(sorted.path.member(s));
    }
  }
}

}  // namespace
}  // namespace dgr
