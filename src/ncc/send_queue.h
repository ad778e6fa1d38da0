// SendQueue: paces an arbitrarily large set of outgoing messages under the
// per-round send cap and transparently retries bounced messages.
//
// This is the Las-Vegas workhorse behind the paper's Theorem 12 (making a
// realization explicit) and Algorithm 6 phase 2: a node with deg(v) pending
// notifications drips them out at Theta(log n) per round; oversubscribed
// receivers bounce the excess, and bounces are retried until everything
// drains — w.h.p. within O(load/log n + log n) rounds.
//
// Usage inside a round body (one queue per node, owned by the algorithm):
//   queues[ctx.slot()].pump(ctx);
// pump() first re-ingests this node's bounces from the previous round (only
// those whose tag passes the filter), then sends as much of the backlog as
// the remaining round budget allows.
//
// Destinations are NodeRef handles, so pumping resolves no IDs. The backlog
// deque is created on the first push: primitives build one queue per node
// per call (range multicast does so every phase), and most never queue
// anything, while an empty libstdc++ deque already holds a ~0.5 KiB node.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "ncc/network.h"

namespace dgr::ncc {

class SendQueue {
 public:
  SendQueue() = default;

  /// Restrict bounce re-ingestion to messages with this tag (a node may run
  /// several utilities; each must only retry its own traffic).
  explicit SendQueue(std::uint32_t tag_filter)
      : has_filter_(true), tag_filter_(tag_filter) {}

  void push(NodeRef dst, Message m) { backlog_q().push_back({dst, m}); }
  /// Forwarding ingest straight from an inbox view: the queue owns its
  /// backlog across rounds, so this is the one place a zero-copy MessageRef
  /// must be materialized (the view's arena is repacked next round).
  void push(NodeRef dst, const MessageRef& m) {
    backlog_q().push_back({dst, m.materialize()});
  }

  /// Re-ingest bounces, then send while budget remains. Call at most once
  /// per node per round.
  void pump(Ctx& ctx);

  bool idle() const { return backlog() == 0 && in_flight_ == 0; }
  std::size_t backlog() const { return queue_ ? queue_->size() : 0; }
  std::uint64_t in_flight() const { return in_flight_; }

 private:
  struct Pending {
    NodeRef dst;
    Message msg;
  };
  std::deque<Pending>& backlog_q() {
    if (!queue_) queue_ = std::make_unique<std::deque<Pending>>();
    return *queue_;
  }
  std::unique_ptr<std::deque<Pending>> queue_;  // null until the first push
  std::uint64_t in_flight_ = 0;       // sent, not yet known-delivered
  std::uint64_t last_pump_round_ = ~std::uint64_t{0};
  bool has_filter_ = false;
  std::uint32_t tag_filter_ = 0;
};

}  // namespace dgr::ncc
