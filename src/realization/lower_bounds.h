// §7 lower-bound machinery (Theorems 19 and 20).
//
// The paper's lower bounds are information-theoretic: in NCC0 a node starts
// knowing O(1) IDs and can learn only O(log n)-many per round (capacity ×
// IDs-per-message), so any run whose output obliges some node to know K IDs
// took Ω(K / log n) rounds. The simulator tracks exact knowledge sets, so a
// finished run certifies its own information bound; the §7 rows of the
// claims gate (tests/test_claims.cpp) hold the measured round count to
// that certificate from below and to the bound times lg² n from above —
// the tightness ("up to log factors") claim of §7.
#pragma once

#include <cstdint>

#include "ncc/network.h"

namespace dgr::realize {

/// IDs a single message can convey: its payload ID words plus the sender.
std::uint64_t ids_per_message();

/// Information lower bound certified by a finished run: the maximum over
/// nodes of (IDs known - initial knowledge) divided by the per-round intake
/// (capacity × ids_per_message), rounded up.
std::uint64_t knowledge_round_lower_bound(const ncc::Network& net);

/// Closed-form Theorem 19 bound for explicit realization: Δ IDs must enter
/// one node ⇒ Ω(Δ / log n) rounds (log n ≈ intake per round).
std::uint64_t explicit_info_bound(std::uint64_t max_degree, int capacity);

/// Closed-form Theorem 20 bound for the star-heavy family D*(n, m):
/// some node learns Ω(√m) IDs ⇒ Ω(√m / log n) rounds.
std::uint64_t sqrt_m_info_bound(std::uint64_t m, int capacity);

}  // namespace dgr::realize
