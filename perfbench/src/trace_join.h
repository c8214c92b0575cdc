// Stitching one traced request together from three sources by trace id:
// the generator's own client span, the server's span dump (worker span,
// group_commit_wait, wal_fsync) and the server's slow-log counters.

#ifndef PERFBENCH_TRACE_JOIN_H_
#define PERFBENCH_TRACE_JOIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Spans from a laxml_server --trace-out dump, keyed by trace id.
struct ServerSpans {
  std::map<uint64_t, double> worker_us;       ///< The worker's op span.
  std::map<uint64_t, double> commit_wait_us;  ///< group_commit_wait.
  std::vector<double> commit_wait_all_us;
  std::vector<double> fsync_us;               ///< Every wal_fsync span.
};
laxml::Result<ServerSpans> ReadServerSpans(const std::string& path);

/// One line of the server's JSONL slow log (fields the join uses).
struct SlowLogEntry {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t unix_us = 0;     ///< Stamped when the request completed.
  double elapsed_us = 0;    ///< Admission to completion.
  double latch_wait_us = 0;
  double tokens_scanned = 0;
};
laxml::Result<std::vector<SlowLogEntry>> ReadSlowLog(const std::string& path);

/// Most requests admitted at once: the peak overlap of the entries'
/// [completion - elapsed, completion] intervals.
uint64_t PeakOverlap(const std::vector<SlowLogEntry>& entries);

/// One request's client span split into the layers it crossed. By
/// construction the five parts sum to `client_us`; `remainder_us` is
/// the worker time no measured part explains, and may be negative when
/// the replayed engine time exceeds the served one.
struct Breakdown {
  double client_us = 0;
  double transit_us = 0;  ///< Client span minus worker span: socket,
                          ///< I/O thread and admission wait.
  double latch_us = 0;
  double commit_us = 0;
  double engine_us = 0;
  double remainder_us = 0;

  double Sum() const {
    return transit_us + latch_us + commit_us + engine_us + remainder_us;
  }
};
Breakdown Decompose(double client_us, double worker_us, double latch_us,
                    double commit_us, double engine_us);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_JOIN_H_
