#include "ncc/send_queue.h"

namespace dgr::ncc {

void SendQueue::pump(Ctx& ctx) {
  if (last_pump_round_ == ctx.round()) return;  // idempotent within a round
  last_pump_round_ = ctx.round();

  // The fate of every message sent last round is now known: bounces are in
  // ctx.bounced(), everything else was delivered. Retries go to the front of
  // the backlog so no message starves.
  for (const auto& b : ctx.bounced()) {
    if (has_filter_ && b.msg.tag != tag_filter_) continue;
    backlog_q().push_front({b.dst, b.msg});
  }
  in_flight_ = 0;
  if (!queue_) return;

  while (!queue_->empty() && ctx.sends_left() > 0) {
    const Pending p = queue_->front();
    queue_->pop_front();
    ctx.send(p.dst, p.msg);
    ++in_flight_;
  }
}

}  // namespace dgr::ncc
