// One name->value snapshot shape for every stats struct in the stack.
//
// Before this layer, NetStats, ServiceStats/CacheStats, and the bench/
// example binaries each reinvented "dump my counters": hand-rolled
// ostringstream JSON in dgr_serve, Table rows in dgr_scenarios, benchmark
// counter maps in bench_common. A Row is the common currency: each stats
// struct gets one rows() adapter, and the serializers (rows_to_json,
// rows_to_text) and consumers (benchmark counters, the exporter's JSON
// snapshot) are written once against std::vector<Row>.
//
// serve's adapters are declared here against forward declarations and
// defined in serve/service.cpp, so obs never links against serve headers
// and the dependency arrow stays serve -> obs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ncc/executor.h"
#include "ncc/stats.h"

namespace dgr::serve {
struct ServiceStats;
struct CacheStats;
}  // namespace dgr::serve

namespace dgr::obs {

struct Row {
  std::string name;
  std::int64_t value = 0;
};

/// NetStats counters, phase nanos (only when nonzero), and scope_rounds
/// entries as "scope_rounds.<name>".
std::vector<Row> rows(const ncc::NetStats& s);
std::vector<Row> rows(const ncc::Executor::Stats& s);
// Defined in serve/service.cpp (see header comment).
std::vector<Row> rows(const serve::ServiceStats& s);
std::vector<Row> rows(const serve::CacheStats& s);

/// `{"a":1,"b":2}` — names are identifier-shaped by construction, so no
/// escaping; byte-stable for fixed values.
std::string rows_to_json(const std::vector<Row>& rows);

/// Aligned two-column text ("  name  value\n" lines) for CLI dumps.
std::string rows_to_text(const std::vector<Row>& rows);

}  // namespace dgr::obs
