// Simulation configuration for the NCC model.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dgr::ncc {

/// What happens when more messages target a node in one round than its
/// receive capacity allows.
enum class OverflowPolicy {
  /// Las-Vegas mode (default): the receiver accepts a uniformly random
  /// capacity-sized subset; the rest bounce back to their senders, who see
  /// them in Ctx::bounced() next round and may retry. Models back-pressure.
  kBounce,
  /// Strict mode: oversubscription throws. Used in tests to prove that the
  /// deterministic primitives never exceed the model's capacity.
  kStrict,
};

/// Initial knowledge graph Gk (paper §2).
enum class InitialKnowledge {
  /// NCC0: Gk is a directed path over the nodes in an arbitrary order; each
  /// node initially knows only its path successor's ID.
  kPath,
  /// NCC1: every node knows every ID (KT1 analogue).
  kClique,
};

struct Config {
  std::uint64_t seed = 1;

  /// Per-round send and receive budget is
  /// max(min_capacity, capacity_factor * ceil(log2 n)) messages.
  int capacity_factor = 4;
  int min_capacity = 8;

  OverflowPolicy overflow = OverflowPolicy::kBounce;
  InitialKnowledge initial = InitialKnowledge::kPath;

  /// Hard stop: a simulation exceeding this many rounds throws (guards
  /// against livelock in experimental code).
  std::size_t max_rounds = 5'000'000;

  /// Worker threads for the per-node round body (1 = serial; effective
  /// count is min(threads, n)). Threads > 1 registers the Network with the
  /// process-wide Executor (ncc/executor.h), which lazily starts shared
  /// workers on the first parallel round — workers park between rounds, so
  /// there is no per-round spawn/join cost, and concurrent Networks share
  /// one pool. The cap is honored via slice partitioning: each round is
  /// dispatched as `threads` tasks, task t covering a fixed slot slice and
  /// a private outbox arena; transcripts are bit-for-bit identical for any
  /// thread count and any number of concurrently-running networks.
  unsigned threads = 1;

  /// Independent per-message loss probability (0 = reliable links, the
  /// model's default). Dropped messages vanish without sender feedback —
  /// unlike capacity bounces. Used by the §8 robustness experiments
  /// together with the reliable-exchange primitive.
  double drop_probability = 0.0;

  /// Active-set scheduling for Network::round_active (true, the default):
  /// the round body runs only for slots that received a message, hold a
  /// bounce, or were explicitly woken. With false, round_active falls back
  /// to dense dispatch (the body runs for every slot) while keeping the
  /// same active-set bookkeeping and termination — bodies are required to
  /// be silent for inactive slots, so the transcript is bit-for-bit
  /// identical either way. The dense fallback exists as the reference mode
  /// the EngineDeterminism equivalence tests compare against.
  bool sparse_rounds = true;

  /// Randomly permute the path order (true) or use slot order (false —
  /// convenient for unit tests and for reproducing the paper's figures).
  bool shuffle_path = true;

  /// Draw IDs at random from a large space (true) or use 1..n in slot order
  /// (false — convenient for figures/tests).
  bool random_ids = true;
};

}  // namespace dgr::ncc
