// The observability plane: sharded metric primitives under racing
// writers, histogram bucket edges, byte-stable exposition formats, the
// unix-socket exporter protocol, and — the load-bearing contract — engine
// transcripts bit-identical with the whole plane attached or detached at
// any thread count, including a stream subscriber connecting and
// disconnecting mid-run.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ncc/executor.h"
#include "ncc/telemetry.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/net_metrics.h"
#include "obs/rows.h"
#include "testing.h"
#include "util/rng.h"

namespace dgr {
namespace {

using ncc::Ctx;
using ncc::make_msg;

// ---------------------------------------------------------------------------
// Sharded primitives under concurrency.
// ---------------------------------------------------------------------------

TEST(ObsCounter, NoLostUpdatesUnderRacingParallelFor) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t_hits_total", "hits");
  obs::Gauge& g = reg.gauge("t_live", "live");
  ncc::Executor exec;  // private pool, racing pooled workers + caller
  const auto lease = exec.lease(8);
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  exec.parallel_for(lease, kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      c.add(1);
      g.add(3);
      g.sub(2);
    }
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kTasks * kPerTask));
}

TEST(ObsCounter, OverflowShardIsSharedAndExact) {
  // More live threads than exclusive shards: the surplus lands on the
  // shared overflow shard, whose fetch_add path must stay exact. Every
  // thread claims its shard (first add), then waits until ALL threads hold
  // one, so the overflow shard is guaranteed multi-writer.
  obs::Registry reg;
  obs::Counter& c = reg.counter("t_over_total", "overflow");
  constexpr std::size_t kThreads = obs::kShards + 8;
  constexpr std::uint64_t kPerThread = 500;
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      c.add(1);  // claims this thread's shard
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 1; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsHistogram, BucketUpperEdgesAreInclusive) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("t_lat", "latency", {10, 20});
  for (std::uint64_t v : {5u, 10u, 15u, 20u, 25u}) h.observe(v);
  // A value lands in the first bucket whose upper bound is >= it.
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 2, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 75u);
}

TEST(ObsHistogram, NonIncreasingBoundsThrow) {
  obs::Registry reg;
  EXPECT_THROW(reg.histogram("t_bad", "x", {10, 10}), std::invalid_argument);
}

TEST(ObsRegistry, NameKeepsItsTypeAndInstance) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t_c", "a counter");
  EXPECT_EQ(&c, &reg.counter("t_c", "different help is ignored"));
  EXPECT_THROW(reg.gauge("t_c", "not a gauge"), std::logic_error);
  reg.gauge_callback("t_cb", "polled", [] { return 42; });
  EXPECT_THROW(reg.gauge("t_cb", "stored"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Exposition formats (golden bytes; snapshot order is lexicographic).
// ---------------------------------------------------------------------------

obs::Registry& golden_registry(obs::Registry& reg) {
  reg.counter("t_jobs_total", "Jobs entered").add(3);
  obs::Gauge& g = reg.gauge("t_depth", "Queue depth");
  g.add(7);
  g.sub(2);
  obs::Histogram& h = reg.histogram("t_wait_ns", "Wait", {10, 100});
  for (std::uint64_t v : {5u, 10u, 50u, 1000u}) h.observe(v);
  return reg;
}

TEST(ObsExposition, PrometheusGolden) {
  obs::Registry reg;
  const auto snap = golden_registry(reg).snapshot();
  EXPECT_EQ(obs::to_prometheus(snap),
            "# HELP t_depth Queue depth\n"
            "# TYPE t_depth gauge\n"
            "t_depth 5\n"
            "# HELP t_jobs_total Jobs entered\n"
            "# TYPE t_jobs_total counter\n"
            "t_jobs_total 3\n"
            "# HELP t_wait_ns Wait\n"
            "# TYPE t_wait_ns histogram\n"
            "t_wait_ns_bucket{le=\"10\"} 2\n"
            "t_wait_ns_bucket{le=\"100\"} 3\n"
            "t_wait_ns_bucket{le=\"+Inf\"} 4\n"
            "t_wait_ns_sum 1065\n"
            "t_wait_ns_count 4\n");
}

TEST(ObsExposition, JsonGolden) {
  obs::Registry reg;
  const auto snap = golden_registry(reg).snapshot();
  EXPECT_EQ(obs::to_json(snap),
            "{\"t_depth\":5,\"t_jobs_total\":3,"
            "\"t_wait_ns\":{\"bounds\":[10,100],\"buckets\":[2,1,1],"
            "\"sum\":1065,\"count\":4}}");
}

TEST(ObsRows, TextAndJsonAgreeOnNames) {
  const std::vector<obs::Row> rows{{"alpha", 1}, {"beta_longer", -2}};
  EXPECT_EQ(obs::rows_to_json(rows), "{\"alpha\":1,\"beta_longer\":-2}");
  const std::string text = obs::rows_to_text(rows);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// NetMetrics folding.
// ---------------------------------------------------------------------------

ncc::RoundSample sample(std::uint64_t round, std::uint64_t sent,
                        std::uint64_t delivered, std::uint64_t dropped) {
  ncc::RoundSample s;
  s.round = round;
  s.sent = sent;
  s.delivered = delivered;
  s.dropped = dropped;
  s.frontier = 10;
  s.frontier_tracked = true;
  return s;
}

TEST(ObsNetMetrics, FoldsCountersAndWithdrawsGaugesOnTeardown) {
  obs::Registry reg;
  obs::Gauge& ewma =
      reg.gauge("dgr_net_delivered_per_round_ewma_x1000", "");
  {
    obs::NetMetrics m(reg);
    m.on_round(sample(0, 100, 80, 20));
    // First round primes the EWMA with the raw observation.
    EXPECT_EQ(m.delivered_per_round_ewma_x1000(), 80'000u);
    EXPECT_EQ(m.delivery_ratio_ewma_ppm(), 800'000u);
    m.on_round(sample(1, 100, 80, 20));
    EXPECT_EQ(m.delivered_per_round_ewma_x1000(), 80'000u);
    EXPECT_EQ(ewma.value(), 80'000);
    EXPECT_EQ(reg.counter("dgr_net_messages_sent_total", "").value(), 200u);
    EXPECT_EQ(reg.counter("dgr_net_rounds_total", "").value(), 2u);
    EXPECT_EQ(reg.counter("dgr_net_drop_events_total", "").value(), 2u);
  }
  // Teardown withdrew the instance's gauge contribution.
  EXPECT_EQ(ewma.value(), 0);
}

// ---------------------------------------------------------------------------
// Exporter socket protocol.
// ---------------------------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/dgr_test_obs_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

int dial(const std::string& path, const char* request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, request, std::strlen(request), 0) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string drain(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ObsExporter, ServesSnapshotsInBothFormats) {
  obs::Registry reg;
  golden_registry(reg);
  obs::Exporter exp(test_socket_path("snap"), reg);
  const std::string prom = drain(dial(exp.path(), "metrics\n"));
  EXPECT_NE(prom.find("# TYPE t_jobs_total counter"), std::string::npos);
  EXPECT_NE(prom.find("t_jobs_total 3\n"), std::string::npos);
  const std::string json = drain(dial(exp.path(), "json\n"));
  EXPECT_NE(json.find("\"t_jobs_total\":3"), std::string::npos);
  // Unknown verbs fall back to Prometheus (curl-over-unix-socket shape).
  const std::string dflt = drain(dial(exp.path(), "GET / HTTP/1.1\n"));
  EXPECT_NE(dflt.find("t_jobs_total 3\n"), std::string::npos);
}

TEST(ObsExporter, StreamsPublishedLinesAndSurvivesDisconnect) {
  obs::Registry reg;
  obs::Exporter exp(test_socket_path("stream"), reg);
  const int fd = dial(exp.path(), "stream\n");
  ASSERT_GE(fd, 0);
  // The subscription registers on the exporter's accept thread; publish
  // until the first line arrives (pre-subscription publishes drop on the
  // floor by design).
  std::string got;
  for (int attempt = 0; attempt < 200 && got.empty(); ++attempt) {
    exp.publish("{\"event\":\"tick\"}");
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 10) == 1 && (p.revents & POLLIN) != 0) {
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_GT(n, 0);
      got.assign(buf, static_cast<std::size_t>(n));
    }
  }
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.substr(0, got.find('\n')), "{\"event\":\"tick\"}");
  // Abrupt disconnect: the next publishes must drop the dead subscriber
  // without blocking or crashing the publisher.
  ::close(fd);
  for (int i = 0; i < 64; ++i) exp.publish("{\"event\":\"after-close\"}");
  // The socket still answers scrapes afterwards.
  EXPECT_NE(drain(dial(exp.path(), "metrics\n"))
                .find("dgr_obs_scrapes_total"),
            std::string::npos);
}

TEST(ObsExporter, UnbindableSocketPathThrows) {
  obs::Registry reg;
  EXPECT_THROW(obs::Exporter("/nonexistent-dir/x.sock", reg),
               std::system_error);
}

// ---------------------------------------------------------------------------
// The transcript contract: attaching the observability plane — metrics
// sink, exporter, live subscriber churn — must not change one bit of the
// engine's transcript, at any thread count.
// ---------------------------------------------------------------------------

/// Lossy flood with crash-churn; `plane` attaches NetMetrics (+ exporter
/// with a mid-run connect/disconnect subscriber when `churn`).
testing::NetFingerprint run_flood(unsigned threads, bool plane,
                                  bool churn = false) {
  constexpr std::size_t kN = 96;
  constexpr int kRounds = 20;
  ncc::Config cfg;
  cfg.seed = 77;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  cfg.drop_probability = 0.15;
  ncc::Network net(kN, cfg);

  obs::Registry reg;
  std::unique_ptr<obs::NetMetrics> metrics;
  std::unique_ptr<obs::Exporter> exporter;
  if (plane) {
    metrics = std::make_unique<obs::NetMetrics>(reg);
    net.set_telemetry(metrics.get());
    if (churn) {
      exporter = std::make_unique<obs::Exporter>(
          test_socket_path("churn"), reg);
    }
  }

  int sub = -1;
  for (int r = 0; r < kRounds; ++r) {
    if (r == 4) net.crash(9);
    if (r == 11) net.crash(40);
    if (churn && r == 5) sub = dial(exporter->path(), "stream\n");
    if (churn && r == 12 && sub >= 0) {
      ::close(sub);  // abrupt mid-run disconnect
      sub = -1;
    }
    net.round([&](Ctx& ctx) {
      const auto ids = ctx.all_ids();
      const int sends = ctx.capacity() / 2;
      for (int i = 0; i < sends; ++i) {
        const std::size_t pick = ctx.rng().chance(0.25)
                                     ? ctx.rng().below(4)
                                     : ctx.rng().below(ids.size());
        ctx.send(ids[pick], make_msg(7).push(ctx.rng().below(1u << 20)));
      }
    });
    if (churn && exporter) exporter->publish("{\"event\":\"round\"}");
  }
  if (sub >= 0) ::close(sub);
  net.set_telemetry(nullptr);
  return testing::net_fingerprint(net);
}

TEST(ObsTranscript, IdenticalAttachedVsDetachedAcrossThreadCounts) {
  const testing::NetFingerprint detached = run_flood(1, /*plane=*/false);
  for (unsigned threads : {1u, 4u, 8u}) {
    EXPECT_TRUE(detached == run_flood(threads, /*plane=*/false))
        << "detached, threads=" << threads;
    EXPECT_TRUE(detached == run_flood(threads, /*plane=*/true))
        << "attached, threads=" << threads;
  }
  // Workload sanity: the lossy + bouncy branches actually ran.
  EXPECT_GT(detached.stats.messages_dropped, 0u);
  EXPECT_GT(detached.stats.messages_bounced, 0u);
}

TEST(ObsTranscript, SubscriberChurnMidRunDoesNotPerturbTranscript) {
  const testing::NetFingerprint detached = run_flood(1, /*plane=*/false);
  EXPECT_TRUE(detached == run_flood(1, /*plane=*/true, /*churn=*/true));
  EXPECT_TRUE(detached == run_flood(4, /*plane=*/true, /*churn=*/true));
}

}  // namespace
}  // namespace dgr
