// The closed-loop load generator: one thread per connection, each
// sending its next request only after the previous reply is decoded
// and checked by the workload's oracle.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/metrics.h"
#include "src/workloads.h"

namespace perfbench {

/// One completed request of a traced phase (the client span).
struct OpRecord {
  Op op;
  uint64_t trace_id = 0;
  uint64_t start_us = 0;  ///< Steady clock, the trace timebase.
  double client_us = 0;   ///< Issue to decoded reply.
  laxml::NodeId result_id = laxml::kInvalidNodeId;
  uint64_t result_count = 0;  ///< Ids an XPath reply carried.
  bool measured = false;      ///< Issued inside the measured window.
};

struct LoadOptions {
  uint16_t port = 0;
  double measure_s = 1;  ///< How long the load runs.
  bool traced = false;   ///< Stamp trace ids and keep client spans.
};

struct LoadResult {
  Latencies all, read, write, query;
  double window_s = 0;  ///< How long the load ran.
  uint64_t attempted = 0;
  uint64_t failed = 0;     ///< Failed or refused (shed) requests.
  std::vector<std::string> wrong;   ///< Oracle mismatches.
  std::vector<OpRecord> records;    ///< Traced runs: every completed op.
  double cpu_us = 0;                ///< Generator CPU over the run.
  std::string error;                ///< Connection set-up failure.

  uint64_t completed() const { return all.size() - all.misses(); }
};

/// Runs `workload` against the server on `options.port` with
/// workload.connections() closed-loop connections.
LoadResult RunLoad(Workload* workload, const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
