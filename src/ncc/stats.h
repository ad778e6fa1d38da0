// Round and message accounting for a simulation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dgr::ncc {

/// Monotonic-clock nanoseconds attributed to each delivery-datapath phase:
/// the round bodies, the counting-sort/layout passes, the overflow RNG
/// pre-draw, record placement, and the knowledge learn pass. Only populated
/// while phase timing is on (the telemetry sink attached, or
/// Network::set_phase_timing(true)); otherwise every field stays zero and
/// the engine takes no timestamps at all. Wall-clock measurements, NOT part
/// of the transcript: values differ run to run and across thread counts,
/// so determinism fingerprints must never compare them.
struct PhaseNanos {
  std::uint64_t body = 0;       ///< round-body dispatch (send side)
  std::uint64_t sort = 0;       ///< drop filter + counting sort + layout
  std::uint64_t rng = 0;        ///< overflow-acceptance bitmap pre-draw
  std::uint64_t placement = 0;  ///< record copy into the dest-major inbox
  std::uint64_t learn = 0;      ///< dest-major knowledge learn pass

  std::uint64_t total() const { return body + sort + rng + placement + learn; }
};

struct NetStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages_sent = 0;       ///< accepted by the engine
  std::uint64_t messages_delivered = 0;  ///< reached an inbox
  std::uint64_t messages_bounced = 0;    ///< returned to sender (overflow)
  std::uint64_t messages_dropped = 0;    ///< lost to link failure (no feedback)
  std::uint64_t max_send_in_round = 0;   ///< max per-node sends in any round
  std::uint64_t max_recv_in_round = 0;   ///< max per-node deliveries in any round
  /// Work counter, not transcript: NodeId -> Slot lookups round bodies made
  /// (sends to a NodeId, bare ID words, Ctx::knows / Ctx::ref_of, and
  /// MessageRef::ref_word on NCC1 networks). Sends
  /// and ID words given as NodeRef handles make none. Deterministic, but it
  /// differs between two protocols that send the same records by ID or by
  /// handle, so transcript fingerprints leave it out.
  std::uint64_t id_resolutions = 0;

  /// Rounds attributed to named phases via ScopedRounds.
  std::map<std::string, std::uint64_t> scope_rounds;

  /// Cumulative per-phase wall time (see PhaseNanos): zero unless phase
  /// timing is on. Excluded from transcript fingerprints by design.
  PhaseNanos phase_ns;
};

}  // namespace dgr::ncc
