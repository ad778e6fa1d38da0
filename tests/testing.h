// Shared helpers for the dgr test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ncc/config.h"
#include "ncc/network.h"
#include "ncc/trace.h"
#include "util/rng.h"

namespace dgr::testing {

/// Engine-visible end state of a finished simulation, shared by the
/// determinism/equivalence suites so the list of compared NetStats fields
/// lives in exactly one place: a new counter added here is covered by every
/// transcript-invariance test at once.
struct NetFingerprint {
  ncc::NetStats stats;
  std::vector<std::size_t> knowledge;

  bool operator==(const NetFingerprint& o) const {
    return stats.rounds == o.stats.rounds &&
           stats.messages_sent == o.stats.messages_sent &&
           stats.messages_delivered == o.stats.messages_delivered &&
           stats.messages_bounced == o.stats.messages_bounced &&
           stats.messages_dropped == o.stats.messages_dropped &&
           stats.max_send_in_round == o.stats.max_send_in_round &&
           stats.max_recv_in_round == o.stats.max_recv_in_round &&
           stats.scope_rounds == o.stats.scope_rounds &&
           knowledge == o.knowledge;
  }
};

inline NetFingerprint net_fingerprint(const ncc::Network& net) {
  NetFingerprint fp;
  fp.stats = net.stats();
  fp.knowledge.reserve(net.n());
  for (ncc::Slot s = 0; s < net.n(); ++s)
    fp.knowledge.push_back(net.knowledge_size(s));
  return fp;
}

/// Full-fidelity fingerprint of a finished simulation: the engine
/// fingerprint plus an order-sensitive checksum of every inbox and bounce
/// observed by every node (the workload's round body folds them in).
struct RunFingerprint {
  NetFingerprint net;
  std::vector<std::uint64_t> inbox_digest;
  std::vector<std::uint64_t> bounce_digest;

  const ncc::NetStats& stats() const { return net.stats; }

  bool operator==(const RunFingerprint& o) const {
    return net == o.net && inbox_digest == o.inbox_digest &&
           bounce_digest == o.bounce_digest;
  }
};

/// Every RunFingerprint field folded into one 64-bit value, so a fixed-seed
/// transcript can be pinned as a constant across commits (the equality
/// suites only compare configurations of one build).
inline std::uint64_t digest(const RunFingerprint& fp) {
  const ncc::NetStats& st = fp.net.stats;
  std::uint64_t h =
      hash_mix(st.rounds, st.messages_sent, st.messages_delivered);
  h = hash_mix(h, st.messages_bounced, st.messages_dropped);
  h = hash_mix(h, st.max_send_in_round, st.max_recv_in_round);
  for (const auto& [name, rounds] : st.scope_rounds) {
    for (const char c : name) h = hash_mix(h, static_cast<unsigned char>(c));
    h = hash_mix(h, rounds);
  }
  for (const std::size_t k : fp.net.knowledge) h = hash_mix(h, k);
  for (const std::uint64_t d : fp.inbox_digest) h = hash_mix(h, d);
  for (const std::uint64_t d : fp.bounce_digest) h = hash_mix(h, d, 1);
  return h;
}

/// Every deliver() branch in one clique workload: hot-set oversubscription
/// (bounce), 15% link loss, two mid-run crashes, and flood/trickle
/// oscillation so the touched-destination density crosses the dense-sweep
/// threshold in both directions.
inline RunFingerprint run_crash_loss_overflow(std::size_t n, unsigned threads,
                                              bool sparse,
                                              bool traced = false) {
  ncc::Config cfg;
  cfg.seed = 909;
  cfg.initial = ncc::InitialKnowledge::kClique;
  cfg.threads = threads;
  cfg.sparse_rounds = sparse;
  cfg.drop_probability = 0.15;
  ncc::Network net(n, cfg);
  ncc::Trace trace;
  if (traced) net.set_trace(&trace);

  RunFingerprint fp;
  fp.inbox_digest.assign(n, 0);
  fp.bounce_digest.assign(n, 0);

  for (int r = 0; r < 20; ++r) {
    if (r == 4) net.crash(1);
    if (r == 11) net.crash(static_cast<ncc::Slot>(n / 2));
    net.round([&](ncc::Ctx& ctx) {
      auto& in = fp.inbox_digest[ctx.slot()];
      for (const auto m : ctx.inbox_view())
        in = hash_mix(in, m.src(), m.word(0));
      auto& bo = fp.bounce_digest[ctx.slot()];
      for (const auto& b : ctx.bounced())
        bo = hash_mix(bo, ctx.id_of(b.dst), b.msg.tag);
      const auto ids = ctx.all_ids();
      if (r % 4 < 2) {  // flood rounds: dense, hot-set bounces
        const int sends = ctx.capacity() / 2;
        for (int i = 0; i < sends; ++i) {
          const std::size_t pick = ctx.rng().chance(0.3)
                                       ? ctx.rng().below(3)
                                       : ctx.rng().below(ids.size());
          ctx.send(ids[pick],
                   ncc::make_msg(5).push(ctx.rng().below(1u << 18)));
        }
      } else if (ctx.slot() < 4) {  // trickle rounds: sparse
        ctx.send(ids[ctx.rng().below(ids.size())], ncc::make_msg(6).push(r));
      }
    });
  }

  fp.net = net_fingerprint(net);
  return fp;
}

/// NCC0 network with bounce overflow (the default production setup).
inline ncc::Network make_ncc0(std::size_t n, std::uint64_t seed = 1) {
  ncc::Config cfg;
  cfg.seed = seed;
  return ncc::Network(n, cfg);
}

/// NCC0 network in strict mode: any capacity overflow throws — used to
/// prove the deterministic primitives stay within the model budget.
inline ncc::Network make_strict_ncc0(std::size_t n, std::uint64_t seed = 1) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.overflow = ncc::OverflowPolicy::kStrict;
  return ncc::Network(n, cfg);
}

/// NCC1 network (full knowledge).
inline ncc::Network make_ncc1(std::size_t n, std::uint64_t seed = 1) {
  ncc::Config cfg;
  cfg.seed = seed;
  cfg.initial = ncc::InitialKnowledge::kClique;
  return ncc::Network(n, cfg);
}

}  // namespace dgr::testing
