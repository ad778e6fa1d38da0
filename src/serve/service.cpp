#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "graph/degree_sequence.h"
#include "ncc/config.h"
#include "ncc/network.h"
#include "obs/metrics.h"
#include "obs/rows.h"
#include "realization/implicit_degree.h"
#include "realization/validate.h"
#include "util/check.h"

namespace dgr::serve {

namespace {
/// Process-wide serve metrics (all RealizationService instances fold into
/// the same aggregates). Counter updates ride the existing mu_ critical
/// sections; the latency histograms read clocks only while obs timing is
/// enabled (Registry::set_timing), matching the engine's detached-runs-
/// read-no-clocks rule.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& submit_hits;
  obs::Counter& run_hits;
  obs::Counter& cold_runs;
  obs::Counter& batches;
  obs::Counter& coalesced;
  obs::Counter& admission_waits;
  obs::Histogram& batch_size;
  obs::Histogram& admission_wait_ns;
  obs::Histogram& hit_ns;
  obs::Histogram& cold_ns;

  ServeMetrics()
      : submitted(obs::Registry::instance().counter(
            "dgr_serve_submitted_total", "Requests submitted")),
        completed(obs::Registry::instance().counter(
            "dgr_serve_completed_total", "Responses delivered (any path)")),
        submit_hits(obs::Registry::instance().counter(
            "dgr_serve_submit_hits_total",
            "Requests answered from cache at submit time")),
        run_hits(obs::Registry::instance().counter(
            "dgr_serve_run_hits_total",
            "Requests answered by a driver's cache re-probe")),
        cold_runs(obs::Registry::instance().counter(
            "dgr_serve_cold_runs_total", "Full simulations executed")),
        batches(obs::Registry::instance().counter(
            "dgr_serve_batches_total", "Driver claims from the queue")),
        coalesced(obs::Registry::instance().counter(
            "dgr_serve_coalesced_total",
            "Same-key twins answered by a batchmate's run")),
        admission_waits(obs::Registry::instance().counter(
            "dgr_serve_admission_waits_total",
            "submit() calls that blocked on a full queue")),
        batch_size(obs::Registry::instance().histogram(
            "dgr_serve_batch_size", "Requests claimed per driver batch",
            {1, 2, 4, 8, 16, 32})),
        admission_wait_ns(obs::Registry::instance().histogram(
            "dgr_serve_admission_wait_ns",
            "Nanoseconds submit() blocked on a full admission queue "
            "(populated only while obs timing is enabled)",
            {10000, 100000, 1000000, 10000000, 100000000, 1000000000})),
        hit_ns(obs::Registry::instance().histogram(
            "dgr_serve_hit_ns",
            "Cache-hit answer latency in nanoseconds (populated only while "
            "obs timing is enabled)",
            {1000, 10000, 100000, 1000000, 10000000})),
        cold_ns(obs::Registry::instance().histogram(
            "dgr_serve_cold_ns",
            "Cold-run (full simulation) latency in nanoseconds (populated "
            "only while obs timing is enabled)",
            {100000, 1000000, 10000000, 100000000, 1000000000,
             10000000000})) {}
};

ServeMetrics& serve_metrics() {
  static ServeMetrics* m = new ServeMetrics;  // immortal (late completions)
  return *m;
}
}  // namespace

RealizationService::RealizationService(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(cfg.cache_capacity, cfg.cache_byte_budget) {
  if (cfg_.drivers == 0) cfg_.drivers = 1;
  if (cfg_.batch_max == 0) cfg_.batch_max = 1;
  drivers_.reserve(cfg_.drivers);
  for (unsigned i = 0; i < cfg_.drivers; ++i) {
    drivers_.emplace_back([this] { driver_main(); });
  }
}

RealizationService::~RealizationService() {
  {
    std::scoped_lock lk(mu_);
    stop_ = true;
  }
  // Drivers keep claiming while the queue is non-empty, so setting stop_
  // first still drains every admitted request before the threads exit.
  cv_work_.notify_all();
  for (auto& th : drivers_) th.join();
}

std::future<RealizationService::Result> RealizationService::submit(
    Request req) {
  std::promise<Result> promise;
  std::future<Result> future = promise.get_future();
  if (req.degrees.empty()) {
    {
      std::scoped_lock lk(mu_);
      ++stats_.submitted;
      ++stats_.completed;
    }
    serve_metrics().submitted.add(1);
    serve_metrics().completed.add(1);
    promise.set_exception(
        std::make_exception_ptr(InvalidRequest("empty degree sequence")));
    return future;
  }
  CacheKey key = key_of(req);

  // Submit-time probe: a hit never touches the queue at all.
  const bool timing = obs::Registry::timing_enabled();
  const std::uint64_t t_probe = timing ? obs::mono_time_ns() : 0;
  if (Result hit = cache_.get(key)) {
    {
      std::scoped_lock lk(mu_);
      ++stats_.submitted;
      ++stats_.submit_hits;
      ++stats_.completed;
    }
    serve_metrics().submitted.add(1);
    serve_metrics().submit_hits.add(1);
    serve_metrics().completed.add(1);
    if (timing) serve_metrics().hit_ns.observe(obs::mono_time_ns() - t_probe);
    promise.set_value(std::move(hit));
    return future;
  }

  std::unique_lock lk(mu_);
  ++stats_.submitted;
  serve_metrics().submitted.add(1);
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.admission_waits;
    serve_metrics().admission_waits.add(1);
    const std::uint64_t t_wait = timing ? obs::mono_time_ns() : 0;
    cv_space_.wait(lk, [&] { return queue_.size() < cfg_.queue_capacity; });
    if (timing)
      serve_metrics().admission_wait_ns.observe(obs::mono_time_ns() - t_wait);
  }
  queue_.push_back(Pending{std::move(key), std::move(promise)});
  lk.unlock();
  cv_work_.notify_one();
  return future;
}

void RealizationService::driver_main() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and fully drained

    // Claim a batch: the head unconditionally, then more small requests up
    // to batch_max. A large head (n > batch_small_n) travels alone so one
    // driver never sits on a pile of cheap requests behind a big one.
    std::vector<Pending> batch;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (batch.front().key.degrees.size() <= cfg_.batch_small_n) {
      while (batch.size() < cfg_.batch_max && !queue_.empty() &&
             queue_.front().key.degrees.size() <= cfg_.batch_small_n) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ++stats_.batches;
    stats_.batched_requests += batch.size();
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch,
                                               batch.size());
    serve_metrics().batches.add(1);
    serve_metrics().batch_size.observe(batch.size());
    lk.unlock();
    cv_space_.notify_all();

    // Coalesce within the batch: identical keys (permutations of one
    // multiset at one seed collapse to one key) are computed once and the
    // single immutable result answers every twin.
    std::vector<bool> served(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (served[i]) continue;
      serve_group(batch, served, i);
    }
    lk.lock();
  }
}

void RealizationService::serve_group(std::vector<Pending>& batch,
                                     std::vector<bool>& served,
                                     std::size_t lead) {
  Result result;
  std::exception_ptr error;
  bool was_hit = false;

  // Re-probe: an identical request may have been computed (by this or
  // another driver) after this one was admitted.
  const bool timing = obs::Registry::timing_enabled();
  const std::uint64_t t0 = timing ? obs::mono_time_ns() : 0;
  if ((result = cache_.get(batch[lead].key))) {
    was_hit = true;
    if (timing) serve_metrics().hit_ns.observe(obs::mono_time_ns() - t0);
  } else {
    try {
      result = std::make_shared<const Realization>(
          cold_run(batch[lead].key, cfg_.net_threads));
      cache_.put(batch[lead].key, result);
      if (timing) serve_metrics().cold_ns.observe(obs::mono_time_ns() - t0);
    } catch (...) {
      error = std::current_exception();
    }
  }

  std::vector<std::size_t> group;
  for (std::size_t j = lead; j < batch.size(); ++j) {
    if (!served[j] && batch[j].key == batch[lead].key) {
      served[j] = true;
      group.push_back(j);
    }
  }

  // Count before fulfilling: a client that just observed its future
  // resolve must already see this group in stats().
  {
    std::scoped_lock lk(mu_);
    stats_.completed += group.size();
    stats_.coalesced += group.size() - 1;
    if (was_hit) {
      ++stats_.run_hits;
    } else if (!error) {
      ++stats_.cold_runs;
    }
  }
  serve_metrics().completed.add(group.size());
  serve_metrics().coalesced.add(group.size() - 1);
  if (was_hit) {
    serve_metrics().run_hits.add(1);
  } else if (!error) {
    serve_metrics().cold_runs.add(1);
  }

  for (const std::size_t j : group) {
    if (error) {
      batch[j].promise.set_exception(error);
    } else {
      batch[j].promise.set_value(result);
    }
  }
}

Realization RealizationService::cold_run(const CacheKey& key,
                                         unsigned net_threads) {
  const std::size_t n = key.degrees.size();
  DGR_CHECK_MSG(n >= 1, "empty degree sequence");

  ncc::Config cfg;
  cfg.seed = key.seed;
  cfg.threads = net_threads;
  ncc::Network net(n, cfg);

  const auto mode = key.mode == Mode::kExact ? realize::DegreeMode::kExact
                                             : realize::DegreeMode::kEnvelope;
  // Canonical slot s asks for the s-th largest degree; the Network's own
  // (seeded) path shuffle and ID draw supply the randomness, so the whole
  // run is a function of (degrees, seed, mode) only.
  const auto res = realize_degrees_implicit(net, key.degrees, mode);

  Realization out;
  out.realizable = res.realizable;
  out.phases = res.phases;
  out.rounds = res.rounds;

  if (!res.realizable) {
    // The distributed verdict "not graphic" is validated by the referee's
    // sequential Erdős–Gallai check.
    if (graph::erdos_gallai_graphic(key.degrees)) {
      out.message = "engine reported a graphic sequence unrealizable";
    } else {
      out.validated = true;
    }
    return out;
  }

  const auto v = key.mode == Mode::kExact
                     ? realize::validate_degree_realization(net, key.degrees,
                                                            res.stored)
                     : realize::validate_upper_envelope(net, key.degrees,
                                                       res.stored);
  out.validated = v.ok;
  out.message = v.message;

  // Slot-index edge list in canonical order: stored[s] holds the aware
  // side's neighbour IDs, each implicit edge exactly once.
  out.edges.reserve(64);
  for (std::size_t s = 0; s < n; ++s) {
    for (const ncc::NodeId id : res.stored[s]) {
      const ncc::Slot t = net.slot_of(id);
      Edge e{static_cast<std::uint32_t>(std::min<std::size_t>(s, t)),
             static_cast<std::uint32_t>(std::max<std::size_t>(s, t))};
      out.edges.push_back(e);
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

ServiceStats RealizationService::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

}  // namespace dgr::serve

// Row adapters declared in obs/rows.h; defined here so obs never includes
// serve headers (the dependency arrow stays serve -> obs).
namespace dgr::obs {

std::vector<Row> rows(const serve::ServiceStats& s) {
  std::vector<Row> out;
  const auto push = [&](const char* name, std::uint64_t v) {
    out.push_back(Row{name, static_cast<std::int64_t>(v)});
  };
  push("submitted", s.submitted);
  push("completed", s.completed);
  push("submit_hits", s.submit_hits);
  push("run_hits", s.run_hits);
  push("cold_runs", s.cold_runs);
  push("batches", s.batches);
  push("batched_requests", s.batched_requests);
  push("max_batch", s.max_batch);
  push("coalesced", s.coalesced);
  push("admission_waits", s.admission_waits);
  return out;
}

std::vector<Row> rows(const serve::CacheStats& s) {
  std::vector<Row> out;
  const auto push = [&](const char* name, std::uint64_t v) {
    out.push_back(Row{name, static_cast<std::int64_t>(v)});
  };
  push("hits", s.hits);
  push("misses", s.misses);
  push("evictions", s.evictions);
  push("size", s.size);
  push("capacity", s.capacity);
  push("bytes", s.bytes);
  push("byte_budget", s.byte_budget);
  return out;
}

}  // namespace dgr::obs
