// The benchmark's own tests: the percentile rule, misses, ratio bases,
// the trace breakdown, and that every oracle rejects a planted wrong
// answer while accepting the store's real ones.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "net/client.h"
#include "query/xpath_eval.h"
#include "server/server.h"
#include "src/loadgen.h"
#include "src/metrics.h"
#include "src/trace_join.h"
#include "src/workloads.h"
#include "store/store.h"

namespace perfbench {
namespace {

using laxml::net::OpCode;
using laxml::net::Response;

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(Percentile, NearestRank) {
  Latencies l;
  for (int i = 1; i <= 100; ++i) l.Add(i);
  EXPECT_EQ(l.Percentile(50), 50);
  EXPECT_EQ(l.Percentile(99), 99);
  EXPECT_EQ(l.Percentile(100), 100);
  EXPECT_TRUE(std::isnan(Latencies().Percentile(50)));
}

TEST(Percentile, MissesAreInfinite) {
  Latencies l;
  for (int i = 0; i < 98; ++i) l.Add(10);
  l.AddMiss();
  l.AddMiss();
  EXPECT_EQ(l.misses(), 2u);
  EXPECT_EQ(l.Percentile(50), 10);
  EXPECT_TRUE(std::isinf(l.Percentile(99)));
}

TEST(Metrics, RatiosCarryTheirBase) {
  MetricSet m;
  m.AddRatio("storage.pool_hit_ratio", Ratio{90, 120});
  m.AddRatio("index.partial_hit_ratio", Ratio{5, 0});
  EXPECT_DOUBLE_EQ(m.Get("storage.pool_hit_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(m.Get("storage.pool_hit_ratio.base"), 120);
  EXPECT_EQ(m.Get("index.partial_hit_ratio"), 0.0);
  EXPECT_EQ(m.Get("index.partial_hit_ratio.base"), 0.0);
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"storage.pool_hit_ratio.base\": {\"value\": 120, "
                      "\"unit\": \"count\"}"),
            std::string::npos)
      << json;
}

TEST(Metrics, ResultLineShape) {
  MetricSet m;
  m.Add("p50_us", 1.5, "us");
  m.Add("bad", std::nan(""), "us");
  EXPECT_EQ(ResultJson(true, 10, 0, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}, "
            "\"bad\": {\"value\": null, \"unit\": \"us\"}}}");
}

TEST(Metrics, ParsesPrometheus) {
  const PromScrape s = ParsePrometheus(
      "# TYPE x counter\nlaxml_wal_syncs_total 12\n"
      "laxml_server_op_us_p99{op=\"READ_NODE\"} 250\n");
  EXPECT_EQ(PromGet(s, "laxml_wal_syncs_total"), 12);
  EXPECT_EQ(PromGet(s, "laxml_server_op_us_p99{op=\"READ_NODE\"}"), 250);
  EXPECT_EQ(PromGet(s, "absent"), 0);
  EXPECT_EQ(PromDelta(s, ParsePrometheus("laxml_wal_syncs_total 20\n"),
                      "laxml_wal_syncs_total"),
            8);
}

TEST(TraceJoin, BreakdownSumsToTheClientSpan) {
  const Breakdown b = Decompose(500, 300, 40, 100, 180);
  EXPECT_DOUBLE_EQ(b.transit_us, 200);
  EXPECT_DOUBLE_EQ(b.remainder_us, -20);  // reported, not hidden
  EXPECT_DOUBLE_EQ(b.Sum(), b.client_us);
}

TEST(TraceJoin, PeakOverlap) {
  std::vector<SlowLogEntry> entries(3);
  entries[0].unix_us = 100, entries[0].elapsed_us = 50;  // [50, 100]
  entries[1].unix_us = 120, entries[1].elapsed_us = 40;  // [80, 120]
  entries[2].unix_us = 200, entries[2].elapsed_us = 80;  // [120, 200]
  EXPECT_EQ(PeakOverlap(entries), 2u);
}

// ---------------------------------------------------------------------
// Oracles, driven in process against a real store.

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("perfbench_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Builds `name` at test size and opens its store.
  std::unique_ptr<Workload> Build(const std::string& name) {
    WorkloadSize size;
    size.orders = 40;
    size.auction_scale = 40;
    auto w = Workload::Make(name, 7, size);
    EXPECT_TRUE(w->Prepare().ok());
    const std::string path = (dir_ / "store.db").string();
    EXPECT_TRUE(w->BuildStore(path).ok());
    auto store = laxml::Store::Open(path, w->store_options());
    EXPECT_TRUE(store.ok());
    store_ = std::move(store).value();
    return w;
  }

  /// What the server would answer.
  Response Execute(const laxml::net::Request& req) {
    Response resp;
    auto take = [&](laxml::Result<laxml::NodeId> r) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      resp.id = r.ValueOr(0);
    };
    switch (req.op) {
      case OpCode::kReadNode:
        resp.tokens = store_->Read(req.target).ValueOr({});
        break;
      case OpCode::kInsertIntoLast:
        take(store_->InsertIntoLast(req.target, req.data));
        break;
      case OpCode::kReplaceContent:
        take(store_->ReplaceContent(req.target, req.data));
        break;
      case OpCode::kDeleteNode:
        EXPECT_TRUE(store_->DeleteNode(req.target).ok());
        break;
      case OpCode::kXPath: {
        laxml::XPathEvaluator eval(store_.get());
        resp.ids = eval.Evaluate(req.expr).ValueOr({});
        break;
      }
      default:
        ADD_FAILURE() << "unexpected op";
    }
    return resp;
  }

  /// Runs ops until one of class `want` comes up, checking every answer
  /// on the way; returns that op and its true response.
  std::pair<Op, Response> RunUntil(Workload* w, OpCode want, int conn = 0) {
    for (int i = 0; i < 10000; ++i) {
      const Op op = w->NextOp(conn);
      Response resp = Execute(w->MakeRequest(op));
      if (op.code == want) return {op, resp};
      EXPECT_TRUE(w->Check(conn, op, resp).ok());
    }
    ADD_FAILURE() << "op never generated";
    return {};
  }

  /// A copy of `tokens` with one text value changed.
  static laxml::TokenSequence Corrupt(laxml::TokenSequence tokens) {
    for (laxml::Token& t : tokens) {
      if (t.type == laxml::TokenType::kText) {
        t.value += "x";
        break;
      }
    }
    return tokens;
  }

  std::filesystem::path dir_;
  std::unique_ptr<laxml::Store> store_;
};

TEST_F(OracleTest, ZipfReadsCatchesAWrongFragment) {
  auto w = Build("zipf_reads");
  // A replace first, so the model's post-replace form is exercised.
  auto [replace, replaced] = RunUntil(w.get(), OpCode::kReplaceContent);
  ASSERT_TRUE(w->Check(0, replace, replaced).ok());
  for (int i = 0; i < 20; ++i) {
    auto [op, resp] = RunUntil(w.get(), OpCode::kReadNode);
    EXPECT_TRUE(w->Check(0, op, resp).ok());
    resp.tokens = Corrupt(resp.tokens);
    EXPECT_FALSE(w->Check(0, op, resp).ok());
  }
  // The replaced order reads back in its new form.
  Op read{OpCode::kReadNode, replace.target, replace.arg >> 32};
  EXPECT_TRUE(w->Check(0, read, Execute(w->MakeRequest(read))).ok());
}

TEST_F(OracleTest, PoFeedCatchesAWrongReadAndAWrongDocument) {
  auto w = Build("po_feed");
  for (int i = 0; i < 10; ++i) {
    auto [op, resp] = RunUntil(w.get(), OpCode::kReadNode, i % 4);
    EXPECT_TRUE(w->Check(i % 4, op, resp).ok());
    resp.tokens = Corrupt(resp.tokens);
    EXPECT_FALSE(w->Check(i % 4, op, resp).ok());
  }
  // Finish any half-done write so the store holds exactly the window.
  for (int conn = 0; conn < 4; ++conn) {
    auto [op, resp] = RunUntil(w.get(), OpCode::kReadNode, conn);
    ASSERT_TRUE(w->Check(conn, op, resp).ok());
  }
  auto doc = store_->Read();
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(w->CheckFinalDocument(*doc).ok());
  EXPECT_FALSE(w->CheckFinalDocument(Corrupt(*doc)).ok());
}

TEST_F(OracleTest, XPathAuctionCatchesAWrongIdList) {
  auto w = Build("xpath_auction");
  int checked = 0;
  for (int i = 0; i < 3000 && checked < 50; ++i) {
    const Op op = w->NextOp(i % 2);
    Response resp = Execute(w->MakeRequest(op));
    ASSERT_TRUE(w->Check(i % 2, op, resp).ok()) << i;
    if (op.code != OpCode::kXPath || resp.ids.empty()) continue;
    // Re-issue under the same state, then plant one wrong id.
    const Op again = w->NextOp(1);
    if (again.code != OpCode::kXPath) continue;
    Response wrong = Execute(w->MakeRequest(again));
    if (wrong.ids.empty()) continue;
    wrong.ids.back() += 1;
    EXPECT_FALSE(w->Check(1, again, wrong).ok());
    ++checked;
  }
  EXPECT_GT(checked, 0);
  for (const Op& op : w->FinishOps()) {
    ASSERT_TRUE(w->Check(0, op, Execute(w->MakeRequest(op))).ok());
  }
  auto doc = store_->Read();
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(w->CheckFinalDocument(*doc).ok());
  EXPECT_FALSE(w->CheckFinalDocument(Corrupt(*doc)).ok());
}

// ---------------------------------------------------------------------
// Failed requests are misses in the generator's percentiles.

/// Reads a node that does not exist: every request fails NotFound.
class MissingNode : public Workload {
 public:
  int connections() const override { return 2; }
  laxml::Status BuildStore(const std::string&) override {
    return laxml::Status::OK();
  }
  Op NextOp(int) override { return Op{OpCode::kReadNode, 999999, 0}; }
  laxml::net::Request MakeRequest(const Op& op) const override {
    laxml::net::Request req;
    req.op = op.code;
    req.target = op.target;
    return req;
  }
  laxml::Status Check(int, const Op&, const Response&) override {
    return laxml::Status::OK();
  }
  laxml::Status CheckFinalDocument(const laxml::TokenSequence&) override {
    return laxml::Status::OK();
  }
  uint64_t live_xml_bytes() const override { return 0; }
};

TEST(LoadGen, FailedRequestsAreMisses) {
  auto store = laxml::Store::OpenInMemory({});
  ASSERT_TRUE(store.ok());
  auto server = laxml::Server::Start(std::move(store).value(), {});
  ASSERT_TRUE(server.ok());
  MissingNode workload;
  LoadResult r = RunLoad(&workload, {(*server)->port(), 0.5, false});
  // Each connection stops after its first non-refused failure.
  EXPECT_EQ(r.failed, 2u);
  EXPECT_EQ(r.all.misses(), 2u);
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_TRUE(std::isinf(r.all.Percentile(50)));
  EXPECT_FALSE(workload.model_exact());
}

}  // namespace
}  // namespace perfbench
