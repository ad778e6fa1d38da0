// The process-wide executor: task-claiming semantics, caller
// participation, exception draining, nested submission, and — the load-
// bearing property of the whole extraction — concurrent Networks sharing
// one executor with transcripts bit-identical to solo runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ncc/executor.h"
#include "ncc/message.h"
#include "ncc/network.h"
#include "testing.h"
#include "util/check.h"

namespace dgr {
namespace {

using ncc::Executor;

TEST(Executor, RunsEveryTaskExactlyOnce) {
  Executor exec;  // private pool, not the process-wide instance
  const auto lease = exec.lease(4);
  constexpr std::size_t kCount = 300;
  std::vector<std::atomic<int>> hits(kCount);
  exec.parallel_for(lease, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
  const auto st = exec.stats();
  EXPECT_EQ(st.tasks, kCount);
  // Every task ran on the caller or a pooled worker — no other split is
  // guaranteed: on a loaded single-core machine the workers can drain the
  // whole queue before the caller re-acquires the mutex, so asserting a
  // nonzero caller share here would be a scheduling-luck flake.
  EXPECT_EQ(st.caller_tasks + st.worker_tasks, kCount);
  // Pool sized by the lease: width 4 => at most 3 pooled workers.
  EXPECT_LE(st.workers, 3u);
}

TEST(Executor, CallerDrivesJobAloneWhenPoolEmpty) {
  // Caller participation, deterministically: a width-1 lease spawns no
  // pooled workers, so the submitting thread must claim every task itself
  // (the forward-progress guarantee behind deadlock-free nested runs).
  Executor exec;
  const auto lease = exec.lease(1);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  exec.parallel_for(lease, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
  const auto st = exec.stats();
  EXPECT_EQ(st.caller_tasks, kCount);
  EXPECT_EQ(st.worker_tasks, 0u);
  EXPECT_EQ(st.workers, 0u);
}

TEST(Executor, ChunkedClaimRunsEveryTaskExactlyOnce) {
  Executor exec;
  const auto lease = exec.lease(4);
  constexpr std::size_t kCount = 301;  // deliberately not a chunk multiple
  for (const std::size_t chunk : {2ul, 7ul, 64ul}) {
    std::vector<std::atomic<int>> hits(kCount);
    exec.parallel_for(
        lease, kCount,
        [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
        chunk);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "chunk " << chunk << " task " << i;
    }
  }
}

TEST(Executor, ChunkCoveringWholeJobRunsInlineInOrder) {
  // count <= chunk degenerates to the inline path: ascending order on the
  // calling thread, no pooled workers.
  Executor exec;
  const auto lease = exec.lease(8);
  std::vector<std::size_t> order;
  exec.parallel_for(
      lease, 5, [&](std::size_t i) { order.push_back(i); }, 8);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(exec.stats().workers, 0u);
  EXPECT_EQ(exec.stats().jobs, 0u);
}

TEST(Executor, ChunkedExceptionRethrownAfterEveryTaskExecuted) {
  Executor exec;
  const auto lease = exec.lease(4);
  constexpr std::size_t kCount = 96;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(
      exec.parallel_for(
          lease, kCount,
          [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 40) throw std::runtime_error("task");
          },
          5),
      std::runtime_error);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(Executor, SingleTaskAndEmptyJobRunInline) {
  Executor exec;
  const auto lease = exec.lease(8);
  int ran = 0;
  exec.parallel_for(lease, 1, [&](std::size_t) { ++ran; });
  exec.parallel_for(lease, 0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
  // Neither call needed the pool.
  EXPECT_EQ(exec.stats().workers, 0u);
  EXPECT_EQ(exec.stats().jobs, 0u);
}

TEST(Executor, LeaseWidthZeroClampsToOneAndReleases) {
  Executor exec;
  {
    auto lease = exec.lease(0);
    EXPECT_EQ(lease.width(), 1u);
    EXPECT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(exec.stats().clients, 1u);
    auto moved = std::move(lease);
    EXPECT_FALSE(static_cast<bool>(lease));
    EXPECT_EQ(exec.stats().clients, 1u);
  }
  EXPECT_EQ(exec.stats().clients, 0u);
}

TEST(Executor, ExceptionRethrownAfterEveryTaskExecuted) {
  Executor exec;
  const auto lease = exec.lease(4);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  EXPECT_THROW(
      exec.parallel_for(lease, kCount,
                        [&](std::size_t i) {
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                          if (i % 7 == 3) throw std::runtime_error("task");
                        }),
      std::runtime_error);
  // The failure did not abandon the rest of the job: every task ran.
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(Executor, NestedSubmissionCompletes) {
  // A task of an outer job submits an inner job to the same executor;
  // caller participation guarantees progress even with every pooled
  // worker busy. This is the Runner-drives-multithreaded-Network shape.
  Executor exec;
  const auto outer_lease = exec.lease(4);
  const auto inner_lease = exec.lease(4);
  std::atomic<int> inner_total{0};
  exec.parallel_for(outer_lease, 4, [&](std::size_t) {
    exec.parallel_for(inner_lease, 8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(Executor, ConcurrentJobsFromSeparateThreadsAllComplete) {
  Executor exec;
  constexpr int kClients = 4;
  constexpr std::size_t kCount = 128;
  std::vector<std::atomic<int>> totals(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto lease = exec.lease(3);
      exec.parallel_for(lease, kCount, [&, c](std::size_t) {
        totals[c].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& th : clients) th.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(totals[c].load(), static_cast<int>(kCount)) << "client " << c;
  }
}

// ---- Concurrent networks: the determinism acceptance criterion ----------

/// A messaging-heavy dense workload on the shared process-wide executor:
/// every node floods random targets and folds its inbox each round, so the
/// fingerprint covers sends, delivery order, bounces, and RNG streams.
testing::NetFingerprint run_flood(unsigned threads, bool sparse,
                                  std::uint64_t seed) {
  constexpr std::size_t kN = 160;
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.sparse_rounds = sparse;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  const std::size_t burst = static_cast<std::size_t>(net.capacity()) / 2;
  for (int r = 0; r < 12; ++r) {
    net.round([&](ncc::Ctx& ctx) {
      std::uint64_t acc = 0;
      for (const auto m : ctx.inbox_view()) acc += m.word(0);
      const auto ids = ctx.all_ids();
      for (std::size_t i = 0; i < burst; ++i) {
        ctx.send(ids[ctx.rng().below(ids.size())], ncc::make_msg(7).push(acc + i));
      }
    });
  }
  return testing::net_fingerprint(net);
}

/// A sparse active-set wave (inactive-silent body), the other scheduler.
testing::NetFingerprint run_wave(unsigned threads, bool sparse,
                                 std::uint64_t seed) {
  constexpr std::size_t kN = 160;
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.sparse_rounds = sparse;
  cfg.initial = ncc::InitialKnowledge::kClique;
  ncc::Network net(kN, cfg);
  net.wake(3);
  for (int r = 0; r < 20 && net.has_active(); ++r) {
    net.round_active([&](ncc::Ctx& ctx) {
      bool token = ctx.slot() == 3 && r == 0;
      for (const auto m : ctx.inbox_view()) token |= m.tag() == 9;
      if (!token) return;
      const auto ids = ctx.all_ids();
      for (int k = 0; k < 2; ++k) {
        ctx.send(ids[ctx.rng().below(ids.size())], ncc::make_msg(9).push(ctx.rng().below(1u << 16)));
      }
    });
  }
  return testing::net_fingerprint(net);
}

TEST(ExecutorConcurrentNetworks, SharedExecutorBitIdenticalToSoloRuns) {
  // Solo references across the full threads x scheduler grid.
  const auto ref_flood = run_flood(1, true, 11);
  const auto ref_wave = run_wave(1, true, 22);
  for (const unsigned threads : {1u, 4u, 8u}) {
    for (const bool sparse : {true, false}) {
      EXPECT_TRUE(ref_flood == run_flood(threads, sparse, 11))
          << "solo flood threads=" << threads << " sparse=" << sparse;
      EXPECT_TRUE(ref_wave == run_wave(threads, sparse, 22))
          << "solo wave threads=" << threads << " sparse=" << sparse;
    }
  }

  // Now the same simulations racing on the shared executor: three client
  // threads running flood and wave concurrently, every combination of
  // thread widths and schedulers. Transcripts must not notice.
  for (const unsigned threads : {1u, 4u, 8u}) {
    for (const bool sparse : {true, false}) {
      testing::NetFingerprint a, b, c;
      std::thread t1([&] { a = run_flood(threads, sparse, 11); });
      std::thread t2([&] { b = run_wave(threads, sparse, 22); });
      std::thread t3([&] { c = run_flood(8, !sparse, 11); });
      t1.join();
      t2.join();
      t3.join();
      EXPECT_TRUE(ref_flood == a)
          << "concurrent flood threads=" << threads << " sparse=" << sparse;
      EXPECT_TRUE(ref_wave == b)
          << "concurrent wave threads=" << threads << " sparse=" << sparse;
      EXPECT_TRUE(ref_flood == c) << "concurrent cross-config flood";
    }
  }
}

}  // namespace
}  // namespace dgr
