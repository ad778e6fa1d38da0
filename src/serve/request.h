// Request/response types for realization-as-a-service.
//
// A Request names a degree MULTISET, not an ordered sequence: the service
// canonicalizes to sorted-descending order before running or caching, so
// two permutations of the same degrees are the same request, share one
// cache entry, and receive the same Realization. Responses are therefore
// expressed in canonical slot indices — edge (u, v) means "the node holding
// the u-th largest degree is adjacent to the node holding the v-th
// largest" — which is exactly the quotient under which the answer is
// permutation-invariant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dgr::serve {

/// Which realization contract the request asks for (mirrors
/// realize::DegreeMode; redeclared so serve/ headers stay free of the
/// engine's heavyweight includes).
enum class Mode : std::uint8_t {
  kExact,     ///< realize exactly, or report the sequence non-graphic
  kEnvelope,  ///< realize an upper envelope D' >= D, sum(D') <= 2 sum(D)
};

/// A request the service cannot serve (an empty degree sequence). The
/// service reports it through the request's future, never by throwing on
/// the caller's thread.
class InvalidRequest : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One realization request. `degrees` may arrive in any order.
struct Request {
  std::vector<std::uint64_t> degrees;
  std::uint64_t seed = 1;
  Mode mode = Mode::kExact;
};

/// An undirected edge in canonical slot indices, u < v.
struct Edge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// The service's answer. For a cache hit this is byte-identical to what a
/// cold run at the same canonical request (degrees, seed, mode) produces.
struct Realization {
  bool realizable = false;  ///< kExact only: false = correctly non-graphic
  bool validated = false;   ///< referee verdict on this response
  std::string message;      ///< validation failure reason (empty when ok)
  std::vector<Edge> edges;  ///< canonical-slot edges, sorted ascending
  std::uint64_t phases = 0;
  std::uint64_t rounds = 0;

  friend bool operator==(const Realization&, const Realization&) = default;
};

/// Sorted-descending copy — the canonical representative of the multiset.
inline std::vector<std::uint64_t> canonical_degrees(
    std::vector<std::uint64_t> d) {
  std::sort(d.begin(), d.end(), std::greater<>());
  return d;
}

/// Identity of a cacheable unit of work: canonical degrees + seed + mode.
/// The seed is part of the key because the service promises hit responses
/// byte-identical to a cold run *at the same seed*; distinct seeds are
/// distinct (differently-randomized) realizations.
struct CacheKey {
  std::vector<std::uint64_t> degrees;  ///< canonical (sorted descending)
  std::uint64_t seed = 1;
  Mode mode = Mode::kExact;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    std::uint64_t h = hash_mix(k.seed, static_cast<std::uint64_t>(k.mode),
                               k.degrees.size());
    for (const std::uint64_t d : k.degrees) h = hash_mix(h, d);
    return static_cast<std::size_t>(h);
  }
};

inline CacheKey key_of(const Request& req) {
  return CacheKey{canonical_degrees(req.degrees), req.seed, req.mode};
}

}  // namespace dgr::serve
