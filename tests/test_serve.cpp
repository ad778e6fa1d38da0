// The serving stack: canonicalization, the LRU result cache, and the
// RealizationService pipeline — including the headline guarantee that a
// cache hit is byte-identical to a cold run at the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "graph/degree_sequence.h"
#include "graph/generators.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "serve/service.h"
#include "util/check.h"
#include "util/rng.h"

namespace dgr::serve {
namespace {

std::vector<std::uint64_t> gnp_degrees(std::size_t n, double p,
                                       std::uint64_t seed) {
  Rng rng(hash_mix(seed, 0x5E4E));
  return graph::gnp_sequence(n, p, rng);
}

// ---- Canonicalization --------------------------------------------------

TEST(ServeCanonical, CanonicalDegreesSortsDescending) {
  EXPECT_EQ(canonical_degrees({1, 4, 2, 4, 0, 3}),
            (std::vector<std::uint64_t>{4, 4, 3, 2, 1, 0}));
  EXPECT_EQ(canonical_degrees({}), std::vector<std::uint64_t>{});
  EXPECT_EQ(canonical_degrees({7}), std::vector<std::uint64_t>{7});
}

TEST(ServeCanonical, PermutedSequencesShareOneKey) {
  Request a;
  a.degrees = {3, 1, 2, 2, 1, 3};
  a.seed = 42;
  Request b = a;
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    rng.shuffle(b.degrees);
    EXPECT_EQ(key_of(a), key_of(b)) << "trial " << trial;
    EXPECT_EQ(CacheKeyHash{}(key_of(a)), CacheKeyHash{}(key_of(b)));
  }
}

TEST(ServeCanonical, SeedModeAndMultiplicityAreKeyMaterial) {
  Request base;
  base.degrees = {3, 1, 2, 2};
  base.seed = 42;

  Request other_seed = base;
  other_seed.seed = 43;
  EXPECT_NE(key_of(base), key_of(other_seed));

  Request other_mode = base;
  other_mode.mode = Mode::kEnvelope;
  EXPECT_NE(key_of(base), key_of(other_mode));

  // Same support, different multiplicity: distinct multisets.
  Request other_multiset = base;
  other_multiset.degrees = {3, 1, 2, 1};
  EXPECT_NE(key_of(base), key_of(other_multiset));
}

// ---- ResultCache -------------------------------------------------------

CacheKey key_n(std::uint64_t tag) {
  CacheKey k;
  k.degrees = {tag, 1};
  return k;
}

std::shared_ptr<const Realization> value_n(std::uint64_t tag) {
  auto r = std::make_shared<Realization>();
  r->rounds = tag;
  return r;
}

TEST(ServeCache, HitMissAndEvictionCountersTrackLru) {
  ResultCache cache(2);
  EXPECT_EQ(cache.get(key_n(1)), nullptr);  // miss
  cache.put(key_n(1), value_n(1));
  cache.put(key_n(2), value_n(2));
  const auto hit = cache.get(key_n(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rounds, 1u);

  // Key 1 was just touched, so inserting key 3 must evict key 2.
  cache.put(key_n(3), value_n(3));
  EXPECT_EQ(cache.get(key_n(2)), nullptr);
  EXPECT_NE(cache.get(key_n(1)), nullptr);
  EXPECT_NE(cache.get(key_n(3)), nullptr);

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 2u);
  EXPECT_EQ(st.capacity, 2u);
}

TEST(ServeCache, PutRefreshKeepsNewestValueAndLruPosition) {
  ResultCache cache(2);
  cache.put(key_n(1), value_n(1));
  cache.put(key_n(2), value_n(2));
  // Refreshing key 1 makes it most-recent AND replaces its value.
  cache.put(key_n(1), value_n(10));
  cache.put(key_n(3), value_n(3));  // evicts key 2, not key 1
  EXPECT_EQ(cache.get(key_n(2)), nullptr);
  const auto v = cache.get(key_n(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->rounds, 10u);
}

TEST(ServeCache, CapacityZeroDisablesCaching) {
  ResultCache cache(0);
  cache.put(key_n(1), value_n(1));
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

std::shared_ptr<const Realization> big_value(std::size_t edges) {
  auto r = std::make_shared<Realization>();
  r->edges.resize(edges);
  return r;
}

TEST(ServeCache, ByteBudgetEvictsLruTailIndependentlyOfEntryCount) {
  // Generous entry capacity, tight byte budget: the byte accounting alone
  // must do the evicting. Each big entry charges >= edges * sizeof(Edge).
  const std::size_t per = ResultCache::entry_bytes(key_n(0), *big_value(1000));
  ResultCache cache(/*capacity=*/64, /*byte_budget=*/per * 2);
  cache.put(key_n(1), big_value(1000));
  cache.put(key_n(2), big_value(1000));
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_LE(cache.stats().bytes, per * 2);

  cache.put(key_n(3), big_value(1000));  // over budget: evicts LRU key 1
  const auto st = cache.stats();
  EXPECT_EQ(st.size, 2u);
  EXPECT_GE(st.evictions, 1u);
  EXPECT_LE(st.bytes, st.byte_budget);
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_NE(cache.get(key_n(3)), nullptr);
}

TEST(ServeCache, OversizedSingleEntrySurvivesItsOwnInsert) {
  // One result bigger than the whole budget is retained (and served)
  // rather than thrashed; it goes as soon as anything newer lands.
  ResultCache cache(/*capacity=*/8, /*byte_budget=*/1024);
  cache.put(key_n(1), big_value(4000));
  EXPECT_NE(cache.get(key_n(1)), nullptr);
  EXPECT_GT(cache.stats().bytes, cache.stats().byte_budget);
  cache.put(key_n(2), big_value(1));
  EXPECT_EQ(cache.get(key_n(1)), nullptr);
  EXPECT_NE(cache.get(key_n(2)), nullptr);
}

// ---- RealizationService ------------------------------------------------

TEST(ServeService, HitIsByteIdenticalToColdRun) {
  ServiceConfig cfg;
  cfg.drivers = 2;
  RealizationService service(cfg);

  Request req;
  req.degrees = gnp_degrees(48, 0.3, 1);
  req.seed = 7;
  const CacheKey key = key_of(req);

  Request again = req;
  Rng(3).shuffle(again.degrees);  // permuted twin of the same multiset

  const auto first = service.submit(Request(req)).get();
  const auto second = service.submit(std::move(again)).get();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(first->validated) << first->message;
  EXPECT_TRUE(first->realizable);

  // The hit must be THE cached object, and equal to an independent cold
  // run of the same canonical request, field for field.
  EXPECT_EQ(first.get(), second.get());
  const Realization cold = RealizationService::cold_run(key, 1);
  EXPECT_TRUE(*first == cold);

  const auto st = service.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cold_runs, 1u);
  EXPECT_EQ(st.submit_hits + st.run_hits, 1u);
}

TEST(ServeService, ColdRunIsAPureFunctionOfTheKey) {
  CacheKey key;
  key.degrees = canonical_degrees(gnp_degrees(40, 0.4, 2));
  key.seed = 11;
  const Realization a = RealizationService::cold_run(key, 1);
  const Realization b = RealizationService::cold_run(key, 1);
  const Realization c = RealizationService::cold_run(key, 4);
  EXPECT_TRUE(a.validated) << a.message;
  EXPECT_TRUE(a == b);
  // net_threads is transcript-neutral (the Executor contract).
  EXPECT_TRUE(a == c);

  CacheKey other = key;
  other.seed = 12;
  const Realization d = RealizationService::cold_run(other, 1);
  EXPECT_TRUE(d.validated) << d.message;
  // Different seed => a differently-randomized (but still valid) answer.
  EXPECT_FALSE(a == d);
}

TEST(ServeService, EnvelopeModeValidates) {
  RealizationService service;
  Request req;
  req.degrees = gnp_degrees(40, 0.5, 3);
  req.mode = Mode::kEnvelope;
  const auto r = service.submit(std::move(req)).get();
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->validated) << r->message;
  EXPECT_FALSE(r->edges.empty());
}

TEST(ServeService, NonGraphicSequenceIsAValidatedNegative) {
  // n-1 copies of (n-1) plus a lone 0: the isolated node can't meet the
  // full-degree nodes, so the sequence is non-graphic (Erdős–Gallai).
  std::vector<std::uint64_t> degrees(8, 7);
  degrees.back() = 0;
  ASSERT_FALSE(graph::erdos_gallai_graphic(degrees));

  RealizationService service;
  Request req;
  req.degrees = degrees;
  const auto r = service.submit(std::move(req)).get();
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->realizable);
  EXPECT_TRUE(r->validated) << r->message;
  EXPECT_TRUE(r->edges.empty());
}

TEST(ServeService, EmptyRequestFailsItsFuture) {
  RealizationService service;
  std::future<RealizationService::Result> f = service.submit(Request{});
  EXPECT_THROW(f.get(), InvalidRequest);
  // The service keeps serving after a rejected request.
  Request ok;
  ok.degrees = {1, 1};
  EXPECT_TRUE(service.submit(std::move(ok)).get()->validated);
  EXPECT_EQ(service.stats().submitted, 2u);
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(ServeService, BatchingAndCoalescingAreObservable) {
  ServiceConfig cfg;
  cfg.drivers = 1;  // single driver => the queue depth becomes batches
  cfg.batch_max = 8;
  RealizationService service(cfg);

  const auto degrees = gnp_degrees(32, 0.3, 4);
  std::vector<std::future<RealizationService::Result>> waves;
  // Three keys, each submitted twice, so intra-batch coalescing has twins
  // to fold.
  for (int i = 0; i < 6; ++i) {
    Request req;
    req.degrees = degrees;
    req.seed = 100 + static_cast<std::uint64_t>(i % 3);
    waves.push_back(service.submit(std::move(req)));
  }
  for (auto& f : waves) {
    const auto r = f.get();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->validated) << r->message;
  }

  const auto st = service.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.completed, 6u);
  EXPECT_GE(st.batches, 1u);
  // Every request either queued for a batch or, as a twin submitted after
  // its key's cold run finished, was a submit-time hit that never queues.
  EXPECT_EQ(st.batched_requests + st.submit_hits, 6u);
  EXPECT_GE(st.max_batch, 1u);
  EXPECT_LE(st.max_batch, cfg.batch_max);
  // Every request was answered exactly once, by some path.
  EXPECT_EQ(st.cold_runs + st.submit_hits + st.run_hits + st.coalesced,
            6u);
  // Only 3 distinct keys existed, so at most 3 simulations were necessary —
  // but racing claims may cold-run a duplicate; duplicates are
  // deterministic-identical, so correctness never depends on this.
  EXPECT_GE(st.cold_runs, 3u);
}

TEST(ServeService, ManyConcurrentClientsEachGetTheirOwnAnswer) {
  ServiceConfig cfg;
  cfg.drivers = 4;
  cfg.queue_capacity = 4;  // small bound so admission backpressure engages
  RealizationService service(cfg);

  constexpr int kFamilies = 5;
  constexpr int kPerFamily = 6;
  std::vector<std::vector<std::uint64_t>> family;
  for (int k = 0; k < kFamilies; ++k)
    family.push_back(gnp_degrees(36, 0.15 + 0.15 * k, 10 + k));

  Rng rng(99);
  std::vector<std::future<RealizationService::Result>> futures;
  for (int i = 0; i < kFamilies * kPerFamily; ++i) {
    Request req;
    req.degrees = family[i % kFamilies];
    rng.shuffle(req.degrees);
    req.seed = 5;
    futures.push_back(service.submit(std::move(req)));
  }

  std::vector<RealizationService::Result> first(kFamilies);
  for (int i = 0; i < kFamilies * kPerFamily; ++i) {
    const auto r = futures[i].get();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->validated) << r->message;
    auto& ref = first[i % kFamilies];
    if (!ref) {
      ref = r;
    } else {
      // Every permuted repeat of a family resolves to the same bytes.
      EXPECT_TRUE(*ref == *r) << "family " << i % kFamilies;
    }
  }

  const auto st = service.stats();
  EXPECT_EQ(st.submitted,
            static_cast<std::uint64_t>(kFamilies * kPerFamily));
  EXPECT_EQ(st.completed, st.submitted);
  // 5 distinct keys, 30 requests: the cache and coalescer carried most of
  // the load.
  EXPECT_GE(st.submit_hits + st.run_hits + st.coalesced,
            st.submitted - 3 * kFamilies);
}

}  // namespace
}  // namespace dgr::serve
