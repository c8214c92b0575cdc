// The benchmark's three workloads and their oracles.
//
//   po_feed        the Section 4.1 purchase-order feed: insert a new
//                  order as the last child of the root, delete the
//                  oldest, read recent ones; every commit is logged.
//   zipf_reads     Table 5's skewed reads over a store ~4x the buffer
//                  pool, one Range per order, 5% content replaces.
//   xpath_auction  an XMark-style auction document under a path query
//                  mix, with a rare insert/delete that invalidates the
//                  structural index.
//
// A workload owns the generated inputs and the model the oracle checks
// answers against. Inputs come from the seed alone; payloads are
// regenerated from an op's key, so an op stays small enough to record
// for the in-process replay.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "store/store_options.h"
#include "xml/token_sequence.h"

namespace perfbench {

enum class OpClass { kRead, kWrite, kQuery };

/// One request in replayable form. `arg` keys the payload: an order
/// number, an (order, version) pair, or a query index.
struct Op {
  laxml::net::OpCode code = laxml::net::OpCode::kPing;
  laxml::NodeId target = laxml::kInvalidNodeId;
  uint64_t arg = 0;
};

OpClass ClassOf(laxml::net::OpCode code);

/// Sizes of a workload. Defaults are the benchmark's; tests shrink them.
struct WorkloadSize {
  int orders = 0;          ///< po_feed window / zipf_reads store.
  int auction_scale = 0;   ///< xpath_auction.
};

/// The workload's sizes as benchmarked.
WorkloadSize DefaultSize(const std::string& name);

/// Compact XML text of a fragment (the oracles' byte-for-byte form).
std::string Xml(const laxml::TokenSequence& tokens);

class Workload {
 public:
  /// nullptr when `name` is not a workload.
  static std::unique_ptr<Workload> Make(const std::string& name,
                                        uint64_t seed,
                                        const WorkloadSize& size);

  virtual ~Workload() = default;

  virtual int connections() const = 0;
  /// The server logs every commit to its WAL (--wal).
  virtual bool wal() const { return false; }
  /// Options the server opens the store with (the replay uses them too).
  laxml::StoreOptions store_options() const { return {}; }

  /// Untimed oracle preparation that needs no store file.
  virtual laxml::Status Prepare() { return laxml::Status::OK(); }

  /// Creates the store at `path` from scratch, one insert per fragment,
  /// and resets the model to match it. Timed as set-up; repeatable.
  virtual laxml::Status BuildStore(const std::string& path) = 0;

  /// The next op of connection `conn`. Connections call concurrently;
  /// each only with its own `conn`.
  virtual Op NextOp(int conn) = 0;

  /// The wire request for `op`.
  virtual laxml::net::Request MakeRequest(const Op& op) const = 0;

  /// Oracle: checks the OK response of `op` issued on `conn` and
  /// advances the model. A non-OK status is a wrong answer.
  virtual laxml::Status Check(int conn, const Op& op,
                              const laxml::net::Response& resp) = 0;

  /// A request of `op` failed without a response. A shed request ran
  /// nothing; any other failure leaves the model unsure, which turns
  /// off the final whole-document comparison.
  void NoteFailure(bool shed) {
    if (!shed) model_exact_ = false;
  }

  /// Ops to issue once the load has stopped (restoring a state the
  /// final check expects).
  virtual std::vector<Op> FinishOps() { return {}; }

  /// Whether the final check reads the whole document (false when it
  /// exceeds a wire frame).
  virtual bool reads_final_document() const { return true; }

  /// Oracle for the final whole-document Read().
  virtual laxml::Status CheckFinalDocument(
      const laxml::TokenSequence& doc) = 0;

  /// XML bytes of the live document at the end of the run.
  virtual uint64_t live_xml_bytes() const = 0;

  bool model_exact() const { return model_exact_; }

 protected:
  bool model_exact_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
