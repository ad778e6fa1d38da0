// Arena-pool reuse: bit-identical transcripts and bounded, reclaimable
// memory.
//
// Config::arena_pool recycles the whole per-Network round scratch bundle
// (wire arenas, counting-sort and inbox tables, overflow/bounce tables)
// across Networks. The contract under test:
//   (i)   a pooled run's transcript is bit-for-bit identical to a fresh
//         Network's, for any thread count, either scheduler, and across
//         the overflow/bounce, lossy and crash delivery paths, traced or
//         not;
//   (ii)  reuse really happens (pool stats), including across Networks of
//         DIFFERENT sizes — the bundle regrows or partially re-primes;
//   (iii) pool memory is bounded (max_free) and reclaimable (trim()).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ncc/arena.h"
#include "testing.h"

namespace dgr {
namespace {

using testing::RunFingerprint;

// Every deliver() branch in one workload (testing.h): hot-set
// oversubscription, 15% link loss, two mid-run crashes, and flood/trickle
// oscillation across the dense-sweep threshold.
RunFingerprint run_workload(std::size_t n, unsigned threads, bool sparse,
                            ncc::ArenaPool* pool, bool traced = false) {
  return testing::run_crash_loss_overflow(n, threads, sparse, pool, traced);
}

TEST(ArenaPool, PooledTranscriptIdenticalToFresh) {
  constexpr std::size_t kN = 160;
  for (const bool sparse : {true, false}) {
    const RunFingerprint fresh = run_workload(kN, 1, sparse, nullptr);
    // Drive every pooled run through ONE pool so later runs consume a
    // bundle dirtied (then sanitized) by earlier runs — including runs at
    // a different thread count and, below, a different n.
    ncc::ArenaPool pool;
    for (const unsigned threads : {1u, 4u, 8u}) {
      EXPECT_TRUE(fresh == run_workload(kN, threads, sparse, &pool))
          << "pooled transcript diverged (threads=" << threads
          << ", sparse=" << sparse << ")";
    }
    // Sanity: the workload exercised every delivery branch, and the pool
    // really recycled bundles instead of allocating fresh ones.
    EXPECT_GT(fresh.net.stats.messages_bounced, 0u);
    EXPECT_GT(fresh.net.stats.messages_dropped, 0u);
    EXPECT_GT(fresh.net.stats.messages_delivered, 0u);
    EXPECT_EQ(pool.stats().acquires, 3u);
    EXPECT_EQ(pool.stats().reuses, 2u);
  }
}

TEST(ArenaPool, TracedPooledTranscriptIdenticalToFresh) {
  constexpr std::size_t kN = 96;
  const RunFingerprint fresh =
      run_workload(kN, 1, true, nullptr, /*traced=*/true);
  ncc::ArenaPool pool;
  // First run dirties the bundle under a trace; the second reuses it after
  // a sanitize.
  EXPECT_TRUE(fresh == run_workload(kN, 1, true, &pool, true));
  EXPECT_TRUE(fresh == run_workload(kN, 4, true, &pool, true));
  EXPECT_EQ(pool.stats().reuses, 1u);
}

// A bundle released by a big Network and re-acquired by a smaller one (and
// vice versa) must behave exactly like fresh scratch: prepare() is
// grow-only, sanitize() restores the between-round invariants, and the
// stale high-slot state of the larger run is unreachable to the smaller.
TEST(ArenaPool, ReuseAcrossDifferentSizes) {
  ncc::ArenaPool pool;
  const RunFingerprint big_fresh = run_workload(224, 1, true, nullptr);
  const RunFingerprint small_fresh = run_workload(72, 1, true, nullptr);
  EXPECT_TRUE(big_fresh == run_workload(224, 1, true, &pool));
  EXPECT_TRUE(small_fresh == run_workload(72, 1, true, &pool));   // shrink
  EXPECT_TRUE(big_fresh == run_workload(224, 4, true, &pool));    // regrow
  EXPECT_EQ(pool.stats().acquires, 3u);
  EXPECT_EQ(pool.stats().reuses, 2u);
}

TEST(ArenaPool, FreeListIsBoundedByMaxFree) {
  ncc::ArenaPool pool(/*max_free=*/2);
  std::vector<std::unique_ptr<ncc::RoundScratch>> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.free_count(), 0u);
  for (auto& b : held) pool.release(std::move(b));
  EXPECT_EQ(pool.free_count(), 2u);  // releases beyond the bound are freed
  EXPECT_EQ(pool.stats().dropped, 3u);
}

TEST(ArenaPool, ShrinkAfterHugeRunReclaimsEverything) {
  ncc::ArenaPool pool;
  // A big overflowing run materializes every lazy table in the bundle, so
  // the retained footprint is the full worst case for this n.
  run_workload(1 << 12, 1, true, &pool, /*traced=*/true);
  const std::size_t retained = pool.retained_bytes();
  EXPECT_GT(retained, 0u);
  EXPECT_EQ(pool.free_count(), 1u);
  // The retained bundle is bounded by the largest run, not the sum of all
  // runs: a second, smaller run reuses it without meaningfully growing the
  // pool (its different traffic may still nudge a traffic-sized list up a
  // doubling, hence the slack — what must NOT happen is another O(n)).
  run_workload(256, 1, true, &pool);
  EXPECT_EQ(pool.free_count(), 1u);
  EXPECT_LE(pool.retained_bytes(), retained + (1u << 16));
  // trim() is the reclaim knob: afterwards the pool holds nothing.
  pool.trim();
  EXPECT_EQ(pool.retained_bytes(), 0u);
  EXPECT_EQ(pool.free_count(), 0u);
}

}  // namespace
}  // namespace dgr
