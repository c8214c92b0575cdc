// perfbench_gen: one benchmark run of one workload against the shipped
// laxml_server, driven by a single-process closed-loop generator.
//
//   perfbench_gen --workload NAME --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --work-dir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and then a traced phase of S/2 seconds each and prints the per-layer
// metrics (see perfbench/README.md). The last stdout line is the result
// JSON. Exit 1 when any oracle, CheckIntegrity, fsck or the replay
// fails; 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/client.h"
#include "src/loadgen.h"
#include "src/metrics.h"
#include "src/process.h"
#include "src/replay.h"
#include "src/trace_join.h"
#include "src/workloads.h"
#include "store/store.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using laxml::Status;
using laxml::net::OpCode;

/// CPUs the server and the generator share. Unpinned on a 4-vCPU VM,
/// zipf_reads throughput swung 3.5k-13.6k ops/s between and within
/// runs as threads moved between vCPUs; pinned to one CPU it held
/// within a few percent (see README.md).
constexpr int kCpus = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Unmeasured load before each measured phase (caches fill, lazy
/// indexes warm).
constexpr double kWarmupS = 3.0;
/// Cap on the traced phase: the server's span rings keep only the most
/// recent spans per thread, and the replay re-runs every write.
constexpr double kTracedMaxS = 5.0;
/// Length of the group-commit phase of a traced WAL workload.
constexpr double kCommitPhaseS = 2.0;
/// Wall-time cap on the in-process replay.
constexpr double kReplayBudgetS = 10.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Everything one run found wrong; empty means correct.
struct Verdict {
  std::vector<std::string> problems;
  void Check(const Status& st, const std::string& what) {
    if (!st.ok()) problems.push_back(what + ": " + st.ToString());
  }
};

/// Counters accumulated over every load phase of the run.
struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const LoadResult& r, Verdict* verdict) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& w : r.wrong) verdict->problems.push_back(w);
    if (!r.error.empty()) verdict->problems.push_back(r.error);
  }
};

laxml::Result<std::unique_ptr<laxml::net::Client>> Connect(uint16_t port) {
  return laxml::net::Client::Connect("127.0.0.1", port);
}

laxml::Result<PromScrape> Scrape(laxml::net::Client* client) {
  auto text = client->GetMetrics(laxml::net::MetricsFormat::kPrometheus);
  if (!text.ok()) return text.status();
  return ParsePrometheus(*text);
}

/// Builds the store and starts its server kSetups times; keeps the last
/// server running. Returns the median set-up time in seconds.
laxml::Result<double> SetUp(Workload* workload, const ServerConfig& config,
                            std::unique_ptr<ServerProcess>* server) {
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    if (*server) LAXML_RETURN_IF_ERROR((*server)->Stop());
    server->reset();
    const auto t0 = std::chrono::steady_clock::now();
    LAXML_RETURN_IF_ERROR(workload->BuildStore(config.db));
    LAXML_ASSIGN_OR_RETURN(*server, ServerProcess::Start(config));
    LAXML_ASSIGN_OR_RETURN(auto client, Connect((*server)->port()));
    LAXML_RETURN_IF_ERROR(client->Ping());
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

/// Untraced load after a warm-up that is checked but not measured.
LoadResult Drive(Workload* workload, uint16_t port, double seconds,
                 Totals* totals, Verdict* verdict) {
  LoadResult warm = RunLoad(workload, {port, kWarmupS, false});
  totals->Add(warm, verdict);
  LoadResult result = RunLoad(workload, {port, seconds, false});
  totals->Add(result, verdict);
  return result;
}

/// After the load: finishing ops, the final whole-document oracle and
/// CheckIntegrity. Returns the server's peak RSS under the load, read
/// first: the integrity audit reads the whole WAL into memory, which
/// made the peak a step function of how much a run wrote.
double FinalChecks(Workload* workload, ServerProcess* server,
                   Totals* totals, Verdict* verdict) {
  const double peak_rss_mb = server->PeakRssMb();
  auto client = Connect(server->port());
  if (!client.ok()) {
    verdict->Check(client.status(), "final connect");
    return peak_rss_mb;
  }
  for (const Op& op : workload->FinishOps()) {
    ++totals->attempted;
    auto resp = (*client)->Call(workload->MakeRequest(op));
    if (!resp.ok() || !resp->status.ok()) {
      ++totals->failed;
      workload->NoteFailure(false);
      continue;
    }
    verdict->Check(workload->Check(0, op, *resp), "finishing op");
  }
  if (workload->reads_final_document()) {
    auto doc = (*client)->Read();
    verdict->Check(doc.ok() ? workload->CheckFinalDocument(*doc)
                            : doc.status(),
                   "final document");
  }
  verdict->Check((*client)->CheckIntegrity(), "CheckIntegrity");
  return peak_rss_mb;
}

/// Stops the server, then runs laxml_fsck on the closed store.
void StopAndFsck(std::unique_ptr<ServerProcess>* server, const Args& args,
                 const ServerConfig& config, Verdict* verdict) {
  verdict->Check((*server)->Stop(), "server shutdown");
  server->reset();
  const int rc = RunTool({args.bin_dir + "/laxml_fsck", config.db},
                         config.run_dir + "/fsck.log");
  if (rc != 0) {
    verdict->problems.push_back("laxml_fsck exit code " + std::to_string(rc) +
                                " (see " + config.run_dir + "/fsck.log)");
  }
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// Bytes a closed store occupies: its allocated (not free) pages plus
/// its WAL. Free pages stay in the file for reuse, so the file size
/// tracks the run's write history rather than the live data.
laxml::Result<double> StoredBytes(const std::string& db) {
  laxml::StoreOptions options;
  options.pager.read_only = true;
  LAXML_ASSIGN_OR_RETURN(std::unique_ptr<laxml::Store> store,
                         laxml::Store::Open(db, options));
  laxml::Pager* pager = store->pager();
  return static_cast<double>(pager->page_count() - pager->free_page_count()) *
             pager->page_size() +
         FileBytes(db + ".wal");
}

/// p, or 0 when the class has no samples on this workload.
double PercentileOr0(const Latencies& l, double p) {
  return l.size() == 0 ? 0.0 : l.Percentile(p);
}

void AddClassLatencies(const LoadResult& r, const std::string& prefix,
                       MetricSet* m) {
  m->Add(prefix + "read_p99_us", PercentileOr0(r.read, 99), "us");
  m->Add(prefix + "write_p99_us", PercentileOr0(r.write, 99), "us");
  m->Add(prefix + "query_p50_us", PercentileOr0(r.query, 50), "us");
  m->Add(prefix + "query_p99_us", PercentileOr0(r.query, 99), "us");
}

/// Human-readable notes on a load phase (stdout, before the result).
void PrintPhase(const char* label, const LoadResult& r) {
  std::printf(
      "# %s: %llu ops in %.2fs, %llu failed, highest supported percentile "
      "p%g (read %zu, write %zu, query %zu samples)\n",
      label, static_cast<unsigned long long>(r.completed()), r.window_s,
      static_cast<unsigned long long>(r.failed),
      HighestSupportedPercentile(r.all.size()), r.read.size(), r.write.size(),
      r.query.size());
}

// ---------------------------------------------------------------------

int Run(const Args& args) {
  auto workload = Workload::Make(args.workload, args.seed,
                                 DefaultSize(args.workload));
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string run_dir = args.work_dir + "/" + args.workload + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run_dir.c_str());
    return 1;
  }
  // Before any thread or child exists, so all of them inherit it.
  const int cpus = PinToCpus(kCpus);
  std::printf("# pinned to %d CPUs\n", cpus);
  ServerConfig config;
  config.binary = args.bin_dir + "/laxml_server";
  config.db = run_dir + "/store.db";
  config.run_dir = run_dir;
  config.wal = workload->wal();

  Verdict verdict;
  Totals totals;
  MetricSet metrics;
  std::unique_ptr<ServerProcess> server;
  auto fail = [&](const Status& st, const char* what) {
    std::fprintf(stderr, "perfbench: %s: %s (run dir %s)\n", what,
                 st.ToString().c_str(), run_dir.c_str());
    return 1;
  };

  Status prepared = workload->Prepare();
  if (!prepared.ok()) return fail(prepared, "prepare");
  auto setup_s = SetUp(workload.get(), config, &server);
  if (!setup_s.ok()) return fail(setup_s.status(), "set-up");

  if (!args.trace) {
    LoadResult r = Drive(workload.get(), server->port(), args.seconds,
                         &totals, &verdict);
    PrintPhase("measured", r);
    const double rss = FinalChecks(workload.get(), server.get(), &totals,
                                   &verdict);
    StopAndFsck(&server, args, config, &verdict);
    const double live = static_cast<double>(workload->live_xml_bytes());
    auto stored = StoredBytes(config.db);
    verdict.Check(stored.status(), "open closed store");
    std::printf("# file_amp = %g (file size incl. free pages)\n",
                (FileBytes(config.db) + FileBytes(config.db + ".wal")) / live);
    metrics.Add("setup_s", *setup_s, "s");
    metrics.Add("ops_s", static_cast<double>(r.completed()) / r.window_s,
                "1/s");
    metrics.Add("p50_us", r.all.Percentile(50), "us");
    metrics.Add("p99_us", r.all.Percentile(99), "us");
    metrics.Add("space_amp", stored.ValueOr(std::nan("")) / live, "ratio");
    metrics.Add("peak_rss_mb", rss, "MiB");
    // Class latencies and the failure share are printed, not gated:
    // not every class exists on every workload.
    MetricSet notes;
    AddClassLatencies(r, "", &notes);
    notes.AddRatio("failed_share",
                   {static_cast<double>(totals.failed),
                    static_cast<double>(totals.attempted)});
    for (const std::string& name : notes.names()) {
      std::printf("# %s = %.6g\n", name.c_str(), notes.Get(name));
    }
  } else {
    // Phase U: untraced, the tracing-overhead baseline.
    const double half = args.seconds / 2;
    LoadResult u = Drive(workload.get(), server->port(), half, &totals,
                         &verdict);
    PrintPhase("untraced", u);
    verdict.Check(server->Stop(), "server shutdown");
    server.reset();
    const std::string replay_db = run_dir + "/replay.db";
    fs::copy_file(config.db, replay_db, fs::copy_options::overwrite_existing,
                  ec);
    if (ec) return fail(Status::IOError(ec.message()), "copy store");

    // Phase T: traced server; spans and every op in the slow log.
    ServerConfig traced = config;
    traced.trace_out = run_dir + "/server.trace";
    traced.slow_log = run_dir + "/slow.jsonl";
    auto started = ServerProcess::Start(traced);
    if (!started.ok()) return fail(started.status(), "traced server");
    server = std::move(started).value();
    auto control = Connect(server->port());
    if (!control.ok()) return fail(control.status(), "connect");
    // The warm-up is traced too: the replay must re-create the ids it
    // inserted, though only the measured requests are joined.
    LoadResult warm =
        RunLoad(workload.get(), {server->port(), kWarmupS, true});
    totals.Add(warm, &verdict);
    auto before = Scrape(control->get());
    if (!before.ok()) return fail(before.status(), "scrape");
    const double cpu0 = server->CpuMicros();
    LoadResult t = RunLoad(workload.get(), {server->port(),
                                            std::min(half, kTracedMaxS), true});
    totals.Add(t, &verdict);
    const double cpu1 = server->CpuMicros();
    auto after = Scrape(control->get());
    if (!after.ok()) return fail(after.status(), "scrape");
    PrintPhase("traced", t);
    control->reset();

    // Phase G, WAL workloads only: the same load with every commit
    // fdatasync'd through group commit, for the wal layer's sync and
    // commit-wait numbers. The end-to-end runs leave commits unsynced
    // because fdatasync latency on a shared virtual disk swings over
    // minutes (see README.md).
    PromScrape commit_before, commit_after;
    ServerSpans commit_spans;
    if (workload->wal()) {
      verdict.Check(server->Stop(), "server shutdown");
      ServerConfig synced = config;
      synced.sync_commits = true;
      synced.trace_out = run_dir + "/commit.trace";
      auto g = ServerProcess::Start(synced);
      if (!g.ok()) return fail(g.status(), "group-commit server");
      server = std::move(g).value();
      auto gc = Connect(server->port());
      if (!gc.ok()) return fail(gc.status(), "connect");
      auto b = Scrape(gc->get());
      totals.Add(
          RunLoad(workload.get(), {server->port(), kCommitPhaseS, false}),
          &verdict);
      auto a = Scrape(gc->get());
      if (!b.ok() || !a.ok()) return fail(Status::IOError("scrape"), "scrape");
      commit_before = *b;
      commit_after = *a;
      gc->reset();
      FinalChecks(workload.get(), server.get(), &totals, &verdict);
      StopAndFsck(&server, args, synced, &verdict);
      auto read = ReadServerSpans(synced.trace_out);
      if (!read.ok()) return fail(read.status(), "read trace");
      commit_spans = std::move(read).value();
    } else {
      FinalChecks(workload.get(), server.get(), &totals, &verdict);
      StopAndFsck(&server, args, traced, &verdict);
    }

    auto spans = ReadServerSpans(traced.trace_out);
    if (!spans.ok()) return fail(spans.status(), "read trace");
    auto slow = ReadSlowLog(traced.slow_log);
    if (!slow.ok()) return fail(slow.status(), "read slow log");
    // Requests whose worker span survived the server's span rings.
    std::set<uint64_t> joinable;
    for (const OpRecord& rec : t.records) {
      if (rec.measured && spans->worker_us.count(rec.trace_id) != 0) {
        joinable.insert(rec.trace_id);
      }
    }
    std::vector<OpRecord> issued = warm.records;
    issued.insert(issued.end(), t.records.begin(), t.records.end());
    ReplayResult replay = Replay(*workload, replay_db, std::move(issued),
                                 joinable, kReplayBudgetS);
    if (!replay.error.empty()) verdict.problems.push_back(replay.error);

    // --- The per-request join.
    std::map<uint64_t, const SlowLogEntry*> slow_by_trace;
    for (const SlowLogEntry& e : *slow) slow_by_trace[e.trace_id] = &e;
    Latencies transit;
    Breakdown sums;
    double identity_err = 0;
    uint64_t joined = 0;
    for (const OpRecord& rec : t.records) {
      if (!rec.measured) continue;
      auto worker = spans->worker_us.find(rec.trace_id);
      auto entry = slow_by_trace.find(rec.trace_id);
      auto engine = replay.engine_us.find(rec.trace_id);
      if (worker == spans->worker_us.end() || entry == slow_by_trace.end() ||
          engine == replay.engine_us.end()) {
        continue;  // span overwritten in the server's ring, or not replayed
      }
      auto commit = spans->commit_wait_us.find(rec.trace_id);
      const Breakdown b = Decompose(
          rec.client_us, worker->second, entry->second->latch_wait_us,
          commit == spans->commit_wait_us.end() ? 0.0 : commit->second,
          engine->second);
      identity_err = std::max(identity_err, std::fabs(b.Sum() - b.client_us));
      transit.Add(b.transit_us);
      sums.client_us += b.client_us;
      sums.transit_us += b.transit_us;
      sums.latch_us += b.latch_us;
      sums.commit_us += b.commit_us;
      sums.engine_us += b.engine_us;
      sums.remainder_us += b.remainder_us;
      ++joined;
    }
    if (joined == 0) verdict.problems.push_back("trace join matched nothing");
    if (identity_err > 1e-6 * std::max(1.0, sums.client_us)) {
      verdict.problems.push_back("trace breakdown does not sum to the span");
    }

    // --- Counts for the per-op bases.
    const double ops = static_cast<double>(t.completed());
    double reads = 0, writes = 0, queries = 0, results = 0, user_bytes = 0;
    for (const OpRecord& rec : t.records) {
      if (!rec.measured) continue;
      switch (ClassOf(rec.op.code)) {
        case OpClass::kRead: ++reads; break;
        case OpClass::kQuery: ++queries; results += rec.result_count; break;
        case OpClass::kWrite: {
          laxml::net::Request req = workload->MakeRequest(rec.op);
          ++writes;
          if (!req.data.empty()) user_bytes += Xml(req.data).size();
          break;
        }
      }
    }
    auto delta = [&](const std::string& series) {
      return PromDelta(*before, *after, series);
    };
    auto per = [](double num, double base) { return Ratio{num, base}; };

    // net
    metrics.Add("net.transit_p50_us", transit.Percentile(50), "us");
    metrics.Add("net.transit_p99_us", transit.Percentile(99), "us");
    const double replayed = static_cast<double>(replay.replayed);
    metrics.Add("net.response_bytes_per_op",
                per(replay.response_bytes, replayed).value(), "bytes");
    metrics.Add("net.codec_us_per_op", per(replay.codec_us, replayed).value(),
                "us");
    // server
    for (OpCode op : {OpCode::kReadNode, OpCode::kInsertIntoLast,
                      OpCode::kDeleteNode, OpCode::kReplaceContent,
                      OpCode::kXPath}) {
      const std::string label = laxml::net::OpCodeName(op);
      std::string lower = label;
      std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
      const std::string sel = "{op=\"" + label + "\"}";
      metrics.Add("server.op_p50_us." + lower,
                  PromGet(*after, "laxml_server_op_us_p50" + sel), "us");
      metrics.Add("server.op_p99_us." + lower,
                  PromGet(*after, "laxml_server_op_us_p99" + sel), "us");
    }
    metrics.Add("server.cpu_us_per_op", per(cpu1 - cpu0, ops).value(), "us");
    metrics.Add("server.queue_depth_max",
                static_cast<double>(PeakOverlap(*slow)), "count");
    metrics.AddRatio("server.shed_share",
                     per(delta("laxml_server_shed_total"), ops));
    // concurrency
    Latencies latch;
    for (const SlowLogEntry& e : *slow) {
      if (e.op == "READ_NODE" || e.op == "XPATH") latch.Add(e.latch_wait_us);
    }
    metrics.Add("concurrency.latch_wait_p99_us", PercentileOr0(latch, 99),
                "us");
    const double excl = delta("laxml_latch_exclusive_total");
    metrics.AddRatio("concurrency.exclusive_share",
                     per(excl, excl + delta("laxml_latch_shared_total")));
    // store
    metrics.Add("store.read_self_p50_us", PercentileOr0(replay.read_self, 50),
                "us");
    metrics.Add("store.insert_self_p50_us",
                PercentileOr0(replay.insert_self, 50), "us");
    metrics.Add("store.delete_self_p50_us",
                PercentileOr0(replay.delete_self, 50), "us");
    metrics.Add("store.replace_self_p50_us",
                PercentileOr0(replay.replace_self, 50), "us");
    metrics.Add("store.locate_scan_tokens_per_read",
                per(delta("laxml_store_locate_scan_tokens"), reads).value(),
                "tokens");
    metrics.Add("store.ranges_live", PromGet(*after, "laxml_store_ranges"),
                "count");
    metrics.Add("store.range_splits_per_write",
                per(delta("laxml_range_splits_total"), writes).value(),
                "count");
    // index
    metrics.AddRatio("index.partial_hit_ratio",
                     per(delta("laxml_partial_hits_total"),
                         delta("laxml_partial_lookups_total")));
    metrics.Add("index.partial_invalidations_per_write",
                per(delta("laxml_partial_invalidations_total"), writes).value(),
                "count");
    metrics.Add("index.range_lookups_per_op",
                per(delta("laxml_rangeindex_lookups_total"), ops).value(),
                "count");
    const double s_hits = delta("laxml_structural_index_hits");
    metrics.AddRatio(
        "index.structural_hit_ratio",
        per(s_hits, s_hits + delta("laxml_structural_index_misses")));
    metrics.Add("index.structural_invalidations_per_write",
                per(delta("laxml_structural_index_invalidations"), writes)
                    .value(),
                "count");
    // storage
    const double hits = delta("laxml_bufferpool_hits_total");
    const double page_writes = delta("laxml_bufferpool_page_writes_total");
    const double wal_bytes = delta("laxml_wal_bytes_appended_total");
    metrics.AddRatio("storage.pool_hit_ratio",
                     per(hits, hits + delta("laxml_bufferpool_misses_total")));
    metrics.Add("storage.page_reads_per_op",
                per(delta("laxml_bufferpool_page_reads_total"), ops).value(),
                "count");
    metrics.Add("storage.page_writes_per_op", per(page_writes, ops).value(),
                "count");
    metrics.Add("storage.evictions_per_op",
                per(delta("laxml_bufferpool_evictions_total"), ops).value(),
                "count");
    metrics.AddRatio("storage.write_amp",
                     per(page_writes * 4096 + wal_bytes, user_bytes));
    // wal
    metrics.AddRatio(
        "wal.records_per_fsync",
        per(PromDelta(commit_before, commit_after, "laxml_wal_appends_total"),
            PromDelta(commit_before, commit_after, "laxml_wal_syncs_total")),
        "records");
    Latencies fsync, commit_wait;
    for (double us : commit_spans.fsync_us) fsync.Add(us);
    for (double us : commit_spans.commit_wait_all_us) commit_wait.Add(us);
    metrics.Add("wal.fsync_p50_us", PercentileOr0(fsync, 50), "us");
    metrics.Add("wal.commit_wait_p99_us", PercentileOr0(commit_wait, 99),
                "us");
    metrics.Add("wal.bytes_per_user_byte", per(wal_bytes, user_bytes).value(),
                "ratio");
    // xml
    metrics.Add("xml.bytes_per_token",
                PromGet(*after, "laxml_storage_bytes_per_token_x1000") / 1000,
                "bytes");
    double scanned = 0;
    for (const SlowLogEntry& e : *slow) scanned += e.tokens_scanned;
    metrics.Add("xml.tokens_scanned_per_op",
                per(scanned, static_cast<double>(slow->size())).value(),
                "tokens");
    metrics.Add("xml.dict_symbols", PromGet(*after, "laxml_dict_symbols"),
                "count");
    // query
    metrics.Add("query.parse_us", PercentileOr0(replay.parse, 50), "us");
    const std::pair<const char*, const Latencies*> shapes[] = {
        {"warm", &replay.eval_warm},
        {"cold", &replay.eval_cold},
        {"predicate", &replay.eval_predicate}};
    for (const auto& [shape, l] : shapes) {
      metrics.Add(std::string("query.eval_self_p50_us.") + shape,
                  PercentileOr0(*l, 50), "us");
      metrics.Add(std::string("query.eval_self_p99_us.") + shape,
                  PercentileOr0(*l, 99), "us");
    }
    metrics.Add("query.results_per_query", per(results, queries).value(),
                "count");
    // loadgen
    metrics.Add("loadgen.cpu_share", per(t.cpu_us, t.window_s * 1e6).value(),
                "ratio");
    // trace: the breakdown of the client span, and tracing's own cost
    metrics.Add("trace.overhead_p50_us",
                t.all.Percentile(50) - u.all.Percentile(50), "us");
    metrics.Add("trace.joined_requests", static_cast<double>(joined),
                "count");
    metrics.Add("trace.client_us_total", sums.client_us, "us");
    const std::pair<const char*, double> parts[] = {
        {"transit", sums.transit_us}, {"latch", sums.latch_us},
        {"commit", sums.commit_us},   {"engine", sums.engine_us},
        {"remainder", sums.remainder_us}};
    for (const auto& [part, us] : parts) {
      metrics.Add(std::string("trace.") + part + "_share",
                  per(us, sums.client_us).value(), "ratio");
    }
    metrics.Add("trace.identity_max_err_us", identity_err, "us");
    metrics.Add("trace.ops", ops, "count");
    metrics.Add("trace.writes", writes, "count");
    AddClassLatencies(u, "e2e.", &metrics);
    metrics.AddRatio("e2e.failed_share",
                     per(static_cast<double>(totals.failed),
                         static_cast<double>(totals.attempted)));
  }

  for (const std::string& name : metrics.names()) {
    std::printf("# %s = %.6g\n", name.c_str(), metrics.Get(name));
  }
  const bool correct = verdict.problems.empty();
  for (const std::string& p : verdict.problems) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", p.c_str());
  }
  if (correct) fs::remove_all(run_dir, ec);
  std::printf("%s\n",
              ResultJson(correct, std::max<uint64_t>(1, totals.attempted),
                         totals.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--bin-dir") {
      args->bin_dir = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->bin_dir.empty() && !args->work_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
