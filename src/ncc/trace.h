// Optional message-level tracing for the NCC engine.
//
// Attach a Trace to a Network to record every message outcome (delivered /
// bounced / dropped) with its round, endpoints and tag. Designed for
// debugging protocols and for message-complexity accounting in experiments;
// tracing is off by default and costs nothing when detached. Attaching one
// never changes the transcript: events are read off the engine's ordinary
// delivery, after the fact.
//
// Event order within a round:
//   1. kDropped events, in global source-slot order (the order the link-loss
//      draws consume the delivery stream);
//   2. then, destination by destination in ascending slot order, that
//      destination's kDelivered events in arrival order (exactly the order
//      its inbox_view() shows next round), followed by its kBounced events
//      in arrival order. Inside an oversubscribed destination the delivered
//      events therefore all precede the bounced ones; they do not
//      interleave by arrival.
// A strict-mode overflow throws before any kDelivered/kBounced event of its
// round is recorded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "ncc/ids.h"

namespace dgr::ncc {

enum class MessageOutcome : std::uint8_t { kDelivered, kBounced, kDropped };

struct TraceEvent {
  std::uint64_t round;
  Slot src;
  Slot dst;
  std::uint32_t tag;
  MessageOutcome outcome;
};

class Trace {
 public:
  /// Keep at most `max_events` raw events (older ones are discarded);
  /// aggregate counters are always exact.
  explicit Trace(std::size_t max_events = 1 << 20)
      : max_events_(max_events) {}

  void record(const TraceEvent& e);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t total_recorded() const { return total_; }

  /// Messages per tag (exact, across the whole attachment period).
  const std::map<std::uint32_t, std::uint64_t>& per_tag() const {
    return per_tag_;
  }
  /// Delivered / bounced / dropped totals.
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t bounced() const { return bounced_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Busiest round (most messages) seen so far: (round, count).
  std::pair<std::uint64_t, std::uint64_t> busiest_round() const;

  /// CSV dump of retained raw events: round,src,dst,tag,outcome.
  void write_csv(std::ostream& os) const;

  void clear();

 private:
  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::size_t total_ = 0;
  std::map<std::uint32_t, std::uint64_t> per_tag_;
  std::map<std::uint64_t, std::uint64_t> per_round_;
  std::uint64_t delivered_ = 0;
  std::uint64_t bounced_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dgr::ncc
