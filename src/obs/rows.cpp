#include "obs/rows.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dgr::obs {

namespace {
void push(std::vector<Row>& out, const char* name, std::uint64_t v) {
  out.push_back(Row{name, static_cast<std::int64_t>(v)});
}
}  // namespace

std::vector<Row> rows(const ncc::NetStats& s) {
  std::vector<Row> out;
  push(out, "rounds", s.rounds);
  push(out, "messages_sent", s.messages_sent);
  push(out, "messages_delivered", s.messages_delivered);
  push(out, "messages_bounced", s.messages_bounced);
  push(out, "messages_dropped", s.messages_dropped);
  push(out, "max_send_in_round", s.max_send_in_round);
  push(out, "max_recv_in_round", s.max_recv_in_round);
  push(out, "id_resolutions", s.id_resolutions);
  if (s.phase_ns.total() > 0) {
    push(out, "phase_body_ns", s.phase_ns.body);
    push(out, "phase_sort_ns", s.phase_ns.sort);
    push(out, "phase_rng_ns", s.phase_ns.rng);
    push(out, "phase_placement_ns", s.phase_ns.placement);
    push(out, "phase_learn_ns", s.phase_ns.learn);
  }
  for (const auto& [scope, rounds] : s.scope_rounds)
    out.push_back(Row{"scope_rounds." + scope,
                      static_cast<std::int64_t>(rounds)});
  return out;
}

std::vector<Row> rows(const ncc::Executor::Stats& s) {
  std::vector<Row> out;
  push(out, "jobs", s.jobs);
  push(out, "tasks", s.tasks);
  push(out, "caller_tasks", s.caller_tasks);
  push(out, "worker_tasks", s.worker_tasks);
  push(out, "workers", s.workers);
  push(out, "clients", s.clients);
  return out;
}

std::string rows_to_json(const std::vector<Row>& rows) {
  std::string out = "{";
  bool first = true;
  for (const Row& r : rows) {
    if (!first) out += ",";
    first = false;
    out += "\"" + r.name + "\":";
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, r.value);
    out += buf;
  }
  out += "}";
  return out;
}

std::string rows_to_text(const std::vector<Row>& rows) {
  std::size_t width = 0;
  for (const Row& r : rows) width = std::max(width, r.name.size());
  std::string out;
  for (const Row& r : rows) {
    out += "  " + r.name;
    out.append(width - r.name.size() + 2, ' ');
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, r.value);
    out += buf;
    out += "\n";
  }
  return out;
}

}  // namespace dgr::obs
