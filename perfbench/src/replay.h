// In-process replay: re-issues a traced phase's recorded requests, in
// client issue order, against a copy of the store the phase started
// from, timing each layer's public entry points separately — the store
// Table-1 calls, ParseXPath, XPathEvaluator::Evaluate (the server's own
// query entry point) and the net/wire codec. These are the self times
// that the traced run cannot see from outside the server.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/loadgen.h"
#include "src/metrics.h"
#include "src/workloads.h"

namespace perfbench {

struct ReplayResult {
  /// Engine self time per trace id: the store call, or parse +
  /// evaluate for a query.
  std::map<uint64_t, double> engine_us;
  Latencies read_self, insert_self, delete_self, replace_self;
  Latencies parse;
  /// Evaluate self time by query shape: an index-eligible path already
  /// evaluated since the last write (warm), the first one after a write
  /// (cold), and a predicate path.
  Latencies eval_warm, eval_cold, eval_predicate;
  double codec_us = 0;        ///< Encode+decode of request and response.
  double response_bytes = 0;  ///< EncodeResponse frame bytes.
  uint64_t replayed = 0;
  std::string error;
};

/// Replays `records` (sorted here by issue time) on the store at
/// `store_path`, stopping early once `budget_s` of wall time is spent.
/// Every write runs, since later ops depend on it; reads and queries run
/// only when their trace id is in `joinable`.
ReplayResult Replay(const Workload& workload, const std::string& store_path,
                    std::vector<OpRecord> records,
                    const std::set<uint64_t>& joinable, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
