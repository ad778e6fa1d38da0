#include "scenario/telemetry.h"

#include <algorithm>

#include "util/check.h"

namespace dgr::scenario {

Telemetry::Telemetry(std::uint64_t interval_rounds, std::size_t ring_capacity)
    : interval_rounds_(std::max<std::uint64_t>(interval_rounds, 1)),
      cap_(std::max<std::size_t>(ring_capacity, 1)) {
  ring_.reserve(cap_);
}

void Telemetry::fold(IntervalRecord& r, const ncc::RoundSample& s) {
  if (r.rounds == 0) r.first_round = s.round;
  ++r.rounds;
  r.sent += s.sent;
  r.delivered += s.delivered;
  r.bounced += s.bounced;
  r.dropped += s.dropped;
  r.max_send = std::max(r.max_send, s.max_send);
  r.max_recv = std::max(r.max_recv, s.max_recv);
  r.max_touched = std::max(r.max_touched, s.touched_dests);
  r.max_frontier = std::max(r.max_frontier, s.frontier);
  r.inbox_words_peak = std::max(r.inbox_words_peak, s.inbox_words);
  r.crashed_end = s.crashed;
  r.dense_sweep_rounds += s.dense_sweep ? 1 : 0;
  r.sparse_dispatch_rounds += s.sparse_dispatch ? 1 : 0;
}

void Telemetry::on_round(const ncc::RoundSample& s) {
  fold(totals_, s);
  if (!open_) {
    cur_ = IntervalRecord{};
    open_ = true;
  }
  fold(cur_, s);
  if (cur_.rounds >= interval_rounds_) flush();
}

void Telemetry::flush() {
  if (!open_ || cur_.rounds == 0) return;
  if (ring_.size() < cap_) {
    ring_.push_back(cur_);
  } else {
    ring_[closed_ % cap_] = cur_;
  }
  ++closed_;
  open_ = false;
}

std::size_t Telemetry::intervals() const { return ring_.size(); }

const IntervalRecord& Telemetry::interval(std::size_t i) const {
  DGR_CHECK(i < ring_.size());
  if (closed_ <= cap_) return ring_[i];
  // Ring wrapped: slot closed_ % cap_ holds the oldest retained interval.
  return ring_[(closed_ + i) % cap_];
}

std::vector<IntervalRecord> Telemetry::snapshot() const {
  std::vector<IntervalRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(interval(i));
  return out;
}

std::uint64_t Telemetry::evicted() const {
  return closed_ > cap_ ? closed_ - cap_ : 0;
}

}  // namespace dgr::scenario
