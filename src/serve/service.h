// RealizationService: many independent realization requests served
// concurrently over the process-wide Executor.
//
// Pipeline shape (the classic serve-loop):
//
//   submit(Request)                          driver threads (cfg.drivers)
//     | canonicalize -> CacheKey               |
//     | cache probe: hit -> answer now         | claim a BATCH from the
//     | miss -> bounded admission queue  ----> | admission queue, then per
//       (blocks when full: backpressure)       | request: re-probe cache
//                                              | (another driver may have
//                                              | just computed it), else
//                                              | cold-run a Network over
//                                              | the shared Executor,
//                                              | validate, cache, answer.
//
// Batching is the bounded-admission-queue variant: a driver claims up to
// `batch_max` queued requests in one go as long as they are small
// (n <= batch_small_n); a large request always travels alone. Batches are
// observable in ServiceStats (batches, batched_requests, max_batch).
//
// Determinism: a cold run is a pure function of the canonical request
// (degrees sorted descending, seed, mode) — the Network is seeded from the
// request seed and per-slot RNG streams do the rest — so cache hits return
// results byte-identical to a cold run at the same seed, and concurrent
// serving never changes any individual answer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/request.h"

namespace dgr::serve {

struct ServiceConfig {
  /// Driver threads = request-level concurrency (how many simulations can
  /// be in flight at once). Each driver runs whole simulations; slot-level
  /// parallelism inside one simulation comes from net_threads.
  unsigned drivers = 2;
  /// Config::threads for each cold-run Network (its Executor lease width).
  unsigned net_threads = 1;
  std::size_t cache_capacity = 128;
  /// Byte bound on the result cache's retained heap (0 = entry-count
  /// capacity only). Entry-count capacity stops meaning anything once
  /// request sizes grow — see ResultCache's constructor comment.
  std::size_t cache_byte_budget = 0;
  /// Admission queue bound; submit() blocks while the queue is full.
  std::size_t queue_capacity = 64;
  /// Max requests one driver claims per batch (>= 1).
  std::size_t batch_max = 8;
  /// Only requests with n <= batch_small_n ride in a shared batch; larger
  /// ones always travel alone.
  std::size_t batch_small_n = 256;
};

/// Process-lifetime monotone counters (snapshot via stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;    ///< responses delivered (any path)
  std::uint64_t submit_hits = 0;  ///< answered from cache at submit time
  std::uint64_t run_hits = 0;     ///< answered by a driver's cache re-probe
  std::uint64_t cold_runs = 0;    ///< full simulations executed
  std::uint64_t batches = 0;      ///< driver claims from the queue
  std::uint64_t batched_requests = 0;  ///< requests claimed across batches
  std::uint64_t max_batch = 0;         ///< largest single claim
  std::uint64_t coalesced = 0;  ///< same-key twins answered by a batchmate
  std::uint64_t admission_waits = 0;   ///< submit() calls that blocked
};

class RealizationService {
 public:
  using Result = std::shared_ptr<const Realization>;

  explicit RealizationService(ServiceConfig cfg = {});
  /// Drains the admission queue (every submitted request is answered),
  /// then joins the drivers.
  ~RealizationService();
  RealizationService(const RealizationService&) = delete;
  RealizationService& operator=(const RealizationService&) = delete;

  /// Submit one request; the future resolves to the (cached or computed)
  /// realization. Blocks while the admission queue is full. An empty degree
  /// sequence fails the future with InvalidRequest.
  std::future<Result> submit(Request req);

  ServiceStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }

  /// The deterministic cold path, exposed for tests and benches: run one
  /// Network for the canonical request and validate the outcome. Pure
  /// function of (key); net_threads is transcript-neutral.
  static Realization cold_run(const CacheKey& key, unsigned net_threads);

 private:
  struct Pending {
    CacheKey key;
    std::promise<Result> promise;
  };

  void driver_main();
  /// Compute-or-hit for batch[lead] and fulfill it plus every unserved
  /// same-key twin later in the batch (intra-batch coalescing).
  void serve_group(std::vector<Pending>& batch, std::vector<bool>& served,
                   std::size_t lead);

  ServiceConfig cfg_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // queue became non-empty / stopping
  std::condition_variable cv_space_;  // queue has room again
  std::deque<Pending> queue_;
  bool stop_ = false;
  ServiceStats stats_;
  std::vector<std::thread> drivers_;
};

}  // namespace dgr::serve
