#include "src/replay.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "query/xpath_eval.h"
#include "query/xpath_parser.h"
#include "store/store.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using laxml::NodeId;
using laxml::net::OpCode;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

laxml::Slice FrameBody(const std::vector<uint8_t>& frame) {
  return laxml::Slice(frame.data() + laxml::net::kFrameHeaderSize,
                      frame.size() - laxml::net::kFrameHeaderSize);
}

}  // namespace

ReplayResult Replay(const Workload& workload, const std::string& store_path,
                    std::vector<OpRecord> records,
                    const std::set<uint64_t>& joinable, double budget_s) {
  ReplayResult out;
  auto opened = laxml::Store::Open(store_path, workload.store_options());
  if (!opened.ok()) {
    out.error = "replay open: " + opened.status().ToString();
    return out;
  }
  laxml::Store* store = opened->get();
  // Client issue order respects every dependency the generator has: an
  // op only names ids whose insert reply it has already seen.
  std::sort(records.begin(), records.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.start_us < b.start_us;
            });
  // Ids the served run created, mapped to the replay's own.
  std::unordered_map<NodeId, NodeId> ids;
  std::map<std::string, uint64_t> evaluated_at;  // expr -> write epoch
  uint64_t write_epoch = 1;
  const Clock::time_point start = Clock::now();

  for (const OpRecord& rec : records) {
    if (MicrosSince(start) > budget_s * 1e6) break;
    if (ClassOf(rec.op.code) != OpClass::kWrite &&
        joinable.count(rec.trace_id) == 0) {
      continue;
    }
    Op op = rec.op;
    if (auto it = ids.find(op.target); it != ids.end()) op.target = it->second;
    laxml::net::Request req = workload.MakeRequest(op);
    req.trace_id = rec.trace_id;

    Clock::time_point t = Clock::now();
    std::vector<uint8_t> frame;
    laxml::net::EncodeRequest(req, &frame);
    auto decoded = laxml::net::DecodeRequest(FrameBody(frame));
    double codec = MicrosSince(t);
    if (!decoded.ok()) {
      out.error = "replay request codec: " + decoded.status().ToString();
      return out;
    }

    laxml::net::Response resp;
    resp.op = req.op;
    resp.request_id = req.request_id;
    double engine = 0;
    laxml::Status st;
    t = Clock::now();
    switch (op.code) {
      case OpCode::kReadNode: {
        auto r = store->Read(op.target);
        engine = MicrosSince(t);
        out.read_self.Add(engine);
        if (r.ok()) resp.tokens = std::move(r).value(); else st = r.status();
        break;
      }
      case OpCode::kInsertIntoLast:
      case OpCode::kReplaceContent: {
        auto r = op.code == OpCode::kInsertIntoLast
                     ? store->InsertIntoLast(op.target, req.data)
                     : store->ReplaceContent(op.target, req.data);
        engine = MicrosSince(t);
        (op.code == OpCode::kInsertIntoLast ? out.insert_self
                                            : out.replace_self)
            .Add(engine);
        if (r.ok()) {
          resp.id = *r;
          ids[rec.result_id] = *r;
        } else {
          st = r.status();
        }
        ++write_epoch;
        break;
      }
      case OpCode::kDeleteNode:
        st = store->DeleteNode(op.target);
        engine = MicrosSince(t);
        out.delete_self.Add(engine);
        ++write_epoch;
        break;
      case OpCode::kXPath: {
        auto path = laxml::ParseXPath(req.expr);
        const double parse = MicrosSince(t);
        out.parse.Add(parse);
        if (!path.ok()) {
          st = path.status();
          break;
        }
        Clock::time_point te = Clock::now();
        laxml::XPathEvaluator eval(store);
        auto r = eval.Evaluate(*path);
        const double evaluate = MicrosSince(te);
        engine = parse + evaluate;
        if (req.expr.find('[') != std::string::npos) {
          out.eval_predicate.Add(evaluate);
        } else {
          uint64_t& at = evaluated_at[req.expr];
          (at == write_epoch ? out.eval_warm : out.eval_cold).Add(evaluate);
          at = write_epoch;
        }
        if (r.ok()) resp.ids = std::move(r).value(); else st = r.status();
        break;
      }
      default:
        st = laxml::Status::NotSupported("replay: unexpected op");
    }
    if (!st.ok()) {
      out.error = std::string("replay ") +
                  laxml::net::OpCodeName(op.code) + ": " + st.ToString();
      return out;
    }

    t = Clock::now();
    frame.clear();
    laxml::net::EncodeResponse(resp, &frame);
    auto back = laxml::net::DecodeResponse(FrameBody(frame));
    codec += MicrosSince(t);
    if (!back.ok()) {
      out.error = "replay response codec: " + back.status().ToString();
      return out;
    }
    out.codec_us += codec;
    out.response_bytes += static_cast<double>(frame.size());
    out.engine_us[rec.trace_id] = engine;
    ++out.replayed;
  }
  return out;
}

}  // namespace perfbench
