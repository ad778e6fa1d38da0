// Range multicast over the skip overlay (our Theorem 6/7 realization).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "primitives/bbst.h"
#include "primitives/path.h"
#include "primitives/range_cast.h"
#include "primitives/skiplinks.h"
#include "testing.h"
#include "util/math_util.h"

namespace dgr {
namespace {

struct CastFixture {
  explicit CastFixture(std::size_t n, std::uint64_t seed = 1,
                       bool strict = false)
      : net(strict ? dgr::testing::make_strict_ncc0(n, seed)
                   : dgr::testing::make_ncc0(n, seed)),
        path(prim::undirect_initial_path(net)),
        tree(prim::build_bbst(net, path)),
        skip(prim::build_skiplinks(net, path)) {}
  ncc::Network net;
  prim::PathOverlay path;
  prim::TreeOverlay tree;
  prim::SkipOverlay skip;
};

TEST(RangeCast, SingleTaskCoversExactRange) {
  CastFixture f(200, 3, /*strict=*/true);
  // Source at position 10 multicasts to [50, 120].
  const ncc::Slot src = f.path.order[10];
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  tasks[src].push_back({50, 120, 1, 0, f.net.ref_of(src)});

  std::mutex mu;
  std::set<prim::Position> hit;
  const std::uint64_t before = f.net.stats().rounds;
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot r, std::uint32_t, std::uint64_t p) {
                          EXPECT_EQ(p, f.net.id_of(src));
                          std::scoped_lock lk(mu);
                          hit.insert(f.path.pos[r]);
                        });
  const std::uint64_t rounds = f.net.stats().rounds - before;

  EXPECT_EQ(hit.size(), 71u);
  EXPECT_EQ(*hit.begin(), 50);
  EXPECT_EQ(*hit.rbegin(), 120);
  // Route O(log n) + dissemination O(log range) rounds.
  EXPECT_LE(rounds, 6 * static_cast<std::uint64_t>(ceil_log2(200)) + 10);

  // Receivers learned the source ID (it was an ID payload).
  for (std::size_t p = 50; p <= 120; ++p)
    EXPECT_TRUE(f.net.node_knows(f.path.order[p], f.net.id_of(src)));
}

TEST(RangeCast, SourceInsideItsOwnRange) {
  CastFixture f(64, 4, /*strict=*/true);
  const ncc::Slot src = f.path.order[20];
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  tasks[src].push_back({10, 30, 2, 777, {}});
  std::atomic<int> hits{0};
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot, std::uint32_t, std::uint64_t) {
                          hits.fetch_add(1);
                        });
  EXPECT_EQ(hits.load(), 21);
}

TEST(RangeCast, DisjointParallelGroupsRunUnderStrictCaps) {
  // Algorithm 3's shape: disjoint consecutive groups, source adjacent to
  // its range — deterministic load stays within the strict capacity.
  const std::size_t n = 512;
  CastFixture f(n, 5, /*strict=*/true);
  const std::size_t group = 16;  // source + 15 members
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  std::size_t expected = 0;
  for (std::size_t g = 0; g + group <= n; g += group) {
    const ncc::Slot src = f.path.order[g];
    tasks[src].push_back({static_cast<prim::Position>(g + 1),
                          static_cast<prim::Position>(g + group - 1), 3,
                          0, f.net.ref_of(src)});
    expected += group - 1;
  }
  std::atomic<std::size_t> hits{0};
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot, std::uint32_t, std::uint64_t) {
                          hits.fetch_add(1);
                        });
  EXPECT_EQ(hits.load(), expected);
}

TEST(RangeCast, OverlappingGroupsDrainWithBounces) {
  // Algorithm 6 phase 2's shape: heavily overlapping predecessor ranges.
  const std::size_t n = 300;
  CastFixture f(n, 6, /*strict=*/false);
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  std::size_t expected = 0;
  const std::size_t rho = 40;
  for (std::size_t i = 100; i < n; ++i) {
    const ncc::Slot src = f.path.order[i];
    tasks[src].push_back({static_cast<prim::Position>(i - rho),
                          static_cast<prim::Position>(i - 1), 4,
                          0, f.net.ref_of(src)});
    expected += rho;
  }
  std::atomic<std::size_t> hits{0};
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot, std::uint32_t, std::uint64_t) {
                          hits.fetch_add(1);
                        });
  EXPECT_EQ(hits.load(), expected);
}

TEST(RangeCast, SingletonRange) {
  CastFixture f(32, 7, /*strict=*/true);
  const ncc::Slot src = f.path.order[0];
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  tasks[src].push_back({31, 31, 5, 123, {}});
  std::atomic<int> hits{0};
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot r, std::uint32_t, std::uint64_t v) {
                          EXPECT_EQ(f.path.pos[r], 31);
                          EXPECT_EQ(v, 123u);
                          hits.fetch_add(1);
                        });
  EXPECT_EQ(hits.load(), 1);
}

class RangeCastFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeCastFuzz, RandomOverlappingTasksDeliverExactly) {
  const std::size_t n = 160;
  CastFixture f(n, GetParam() + 40, /*strict=*/false);
  Rng rng(GetParam() * 97 + 13);

  // Random sources with random ranges; track the exact expected multiset.
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  // expected[receiver position] -> list of payloads
  std::vector<std::multiset<std::uint64_t>> expected(n);
  const int task_count = 30;
  for (int t = 0; t < task_count; ++t) {
    const std::size_t src_pos = rng.below(n);
    std::size_t a = rng.below(n), b = rng.below(n);
    if (a > b) std::swap(a, b);
    const ncc::Slot src = f.path.order[src_pos];
    const std::uint64_t payload = 100000 + static_cast<std::uint64_t>(t);
    tasks[src].push_back({static_cast<prim::Position>(a),
                          static_cast<prim::Position>(b),
                          static_cast<std::uint32_t>(t), payload, {}});
    for (std::size_t p = a; p <= b; ++p) expected[p].insert(payload);
  }

  std::mutex mu;
  std::vector<std::multiset<std::uint64_t>> got(n);
  prim::range_multicast(f.net, f.path, f.skip, tasks,
                        [&](prim::Slot r, std::uint32_t, std::uint64_t v) {
                          std::scoped_lock lk(mu);
                          got[static_cast<std::size_t>(f.path.pos[r])]
                              .insert(v);
                        });
  for (std::size_t p = 0; p < n; ++p)
    EXPECT_EQ(got[p], expected[p]) << "position " << p;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCastFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(RangeCast, NoTasksTerminatesImmediately) {
  CastFixture f(16, 8, /*strict=*/true);
  std::vector<std::vector<prim::RangeCastTask>> tasks(f.net.n());
  const std::uint64_t rounds = prim::range_multicast(
      f.net, f.path, f.skip, tasks,
      [](prim::Slot, std::uint32_t, std::uint64_t) { FAIL(); });
  EXPECT_LE(rounds, 2u);
}

}  // namespace
}  // namespace dgr
