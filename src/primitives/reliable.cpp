#include "primitives/reliable.h"

#include <atomic>
#include <deque>
#include <map>
#include <unordered_set>

#include "util/check.h"

namespace dgr::prim {

namespace {
enum Tag : std::uint32_t {
  kTagData = 0x80,  // words = [payload, user_tag, seq]
  kTagAck = 0x81,   // words = [seq]
};
}  // namespace

namespace {

ReliableResult reliable_exchange_impl(
    ncc::Network& net, const std::vector<std::vector<DirectSend>>& batch,
    const DirectDeliver& on_deliver, std::uint64_t retransmit_after,
    std::uint64_t max_attempts) {
  ncc::ScopedRounds scope(net, "reliable_exchange");
  const std::size_t n = net.n();
  DGR_CHECK(batch.size() == n);
  DGR_CHECK(retransmit_after >= 2);

  struct Entry {
    ncc::NodeId dst;
    DirectSend payload;
    std::uint64_t seq;
    std::uint64_t last_sent = 0;
    std::uint64_t attempts = 0;
  };
  struct SenderState {
    std::deque<std::size_t> fresh;  // indexes into entries
    // seq -> index. An ordered map on purpose: the retransmit loop below
    // iterates this container and SENDS under a per-round budget with an
    // early break, so iteration order is transcript-visible. An unordered
    // map would make which entries win the budget depend on the stdlib's
    // hash layout — ascending seq is the deterministic, oldest-first order.
    std::map<std::uint64_t, std::size_t> unacked;
    std::vector<Entry> entries;
  };
  struct ReceiverState {
    // Membership-only (insert + contains); iteration never happens, so
    // hash order can't leak into the transcript. det-ok: unordered_set
    std::unordered_set<std::uint64_t> seen;  // (src slot << 32) | seq
    std::deque<std::pair<ncc::NodeRef, std::uint64_t>> acks_to_send;
  };

  std::vector<SenderState> send_state(n);
  std::vector<ReceiverState> recv_state(n);
  for (ncc::Slot s = 0; s < n; ++s) {
    auto& st = send_state[s];
    st.entries.reserve(batch[s].size());
    std::uint64_t seq = 0;
    for (const auto& d : batch[s]) {
      st.entries.push_back({d.dst, d, seq, 0, 0});
      st.fresh.push_back(st.entries.size() - 1);
      ++seq;
    }
  }

  auto make_data = [](const Entry& e) {
    auto m = ncc::make_msg(kTagData);
    if (e.payload.payload_is_id) m.push_id(e.payload.payload);
    else m.push(e.payload.payload);
    m.push(e.payload.user_tag);
    m.push(e.seq);
    return m;
  };

  const std::uint64_t start = net.stats().rounds;
  std::atomic<std::uint64_t> acked_total{0};
  std::atomic<std::uint64_t> given_up_total{0};
  std::atomic<std::size_t> busy{1};
  while (busy.load() != 0) {
    busy.store(0);
    net.round([&](ncc::Ctx& ctx) {
      const ncc::Slot s = ctx.slot();
      auto& snd = send_state[s];
      auto& rcv = recv_state[s];
      const std::uint64_t now = ctx.round();

      // Ingest: data -> (dedupe, deliver once, queue ack); acks -> settle.
      for (const auto m : ctx.inbox_view()) {
        if (m.tag() == kTagData) {
          const std::uint64_t seq = m.word(2);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(net.slot_of(m.src_ref())) << 32) |
              seq;
          if (rcv.seen.insert(key).second) {
            on_deliver(s, m.src(), static_cast<std::uint32_t>(m.word(1)),
                       m.word(0));
          }
          // Always (re-)ack — the previous ack may have been lost.
          rcv.acks_to_send.emplace_back(m.src_ref(), seq);
        } else if (m.tag() == kTagAck) {
          if (snd.unacked.erase(m.word(0)) > 0) acked_total.fetch_add(1);
        }
      }

      // Acks first: they unblock the other side's retransmission budget.
      while (!rcv.acks_to_send.empty() && ctx.sends_left() > 0) {
        const auto [dst, seq] = rcv.acks_to_send.front();
        rcv.acks_to_send.pop_front();
        ctx.send(dst, ncc::make_msg(kTagAck).push(seq));
      }

      // Retransmit timed-out entries (bounces and drops look identical);
      // abandon entries that exhausted their attempt budget.
      for (auto it = snd.unacked.begin(); it != snd.unacked.end();) {
        Entry& e = snd.entries[it->second];
        if (now - e.last_sent < retransmit_after) {
          ++it;
          continue;
        }
        if (max_attempts > 0 && e.attempts >= max_attempts) {
          it = snd.unacked.erase(it);
          given_up_total.fetch_add(1);
          continue;
        }
        if (ctx.sends_left() <= 0) break;
        e.last_sent = now;
        ++e.attempts;
        ctx.send(e.dst, make_data(e));
        ++it;
      }

      // Fresh sends with the remaining budget.
      while (!snd.fresh.empty() && ctx.sends_left() > 0) {
        const std::size_t idx = snd.fresh.front();
        snd.fresh.pop_front();
        Entry& e = snd.entries[idx];
        e.last_sent = now;
        e.attempts = 1;
        snd.unacked.emplace(e.seq, idx);
        ctx.send(e.dst, make_data(e));
      }

      if (!snd.fresh.empty() || !snd.unacked.empty() ||
          !rcv.acks_to_send.empty()) {
        busy.fetch_add(1);
      }
    });
  }
  ReliableResult result;
  result.rounds = net.stats().rounds - start;
  result.delivered = acked_total.load();
  result.given_up = given_up_total.load();
  return result;
}

}  // namespace

std::uint64_t reliable_exchange(
    ncc::Network& net, const std::vector<std::vector<DirectSend>>& batch,
    const DirectDeliver& on_deliver, std::uint64_t retransmit_after) {
  return reliable_exchange_impl(net, batch, on_deliver, retransmit_after,
                                /*max_attempts=*/0)
      .rounds;
}

ReliableResult reliable_exchange_bounded(
    ncc::Network& net, const std::vector<std::vector<DirectSend>>& batch,
    const DirectDeliver& on_deliver, std::uint64_t retransmit_after,
    std::uint64_t max_attempts) {
  DGR_CHECK(max_attempts >= 1);
  return reliable_exchange_impl(net, batch, on_deliver, retransmit_after,
                                max_attempts);
}

}  // namespace dgr::prim
