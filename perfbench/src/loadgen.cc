#include "src/loadgen.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "net/client.h"
#include "obs/trace.h"
#include "src/process.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct ConnState {
  Latencies all, read, write, query;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> wrong;
  std::vector<OpRecord> records;
};

void RunConnection(Workload* workload, int conn, laxml::net::Client* client,
                   const LoadOptions& options, Clock::time_point end,
                   const std::atomic<bool>* stop, ConnState* out) {
  uint64_t seq = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const Op op = workload->NextOp(conn);
    laxml::net::Request req = workload->MakeRequest(op);
    const uint64_t trace_id =
        options.traced ? (static_cast<uint64_t>(conn + 1) << 40) | ++seq : 0;
    client->set_trace_id(trace_id);
    const uint64_t start_us = laxml::obs::TraceNowMicros();
    const Clock::time_point t0 = Clock::now();
    laxml::Result<laxml::net::Response> resp = client->Call(std::move(req));
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    // Requests issued after the window closed still run and are
    // checked, but are not measured.
    const bool measured = t0 < end;
    const bool ok = resp.ok() && resp->status.ok();
    if (!ok) {
      const bool shed = resp.ok() && resp->status.IsRetryLater();
      ++out->failed;
      workload->NoteFailure(shed);
      if (measured) {
        out->all.AddMiss();
        switch (ClassOf(op.code)) {
          case OpClass::kRead: out->read.AddMiss(); break;
          case OpClass::kWrite: out->write.AddMiss(); break;
          case OpClass::kQuery: out->query.AddMiss(); break;
        }
      }
      // A refused request ran nothing; after any other failure the
      // connection's state is unknown, so it stops.
      if (!shed) return;
      continue;
    }
    laxml::Status check = workload->Check(conn, op, *resp);
    if (!check.ok()) out->wrong.push_back(check.ToString());
    const double us = MicrosSince(t0, t1);
    if (options.traced) {
      // Every completed request, so a replay re-creates every id.
      out->records.push_back(OpRecord{op, trace_id, start_us, us, resp->id,
                                      resp->ids.size(), measured});
    }
    if (!measured) continue;
    out->all.Add(us);
    switch (ClassOf(op.code)) {
      case OpClass::kRead: out->read.Add(us); break;
      case OpClass::kWrite: out->write.Add(us); break;
      case OpClass::kQuery: out->query.Add(us); break;
    }
  }
}

}  // namespace

LoadResult RunLoad(Workload* workload, const LoadOptions& options) {
  LoadResult result;
  const int conns = workload->connections();
  std::vector<std::unique_ptr<laxml::net::Client>> clients;
  for (int c = 0; c < conns; ++c) {
    auto client = laxml::net::Client::Connect("127.0.0.1", options.port);
    if (!client.ok()) {
      result.error = "connect: " + client.status().ToString();
      return result;
    }
    clients.push_back(std::move(client).value());
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(options.measure_s * 1e6));
  const double cpu_before = SelfCpuMicros();
  std::atomic<bool> stop{false};
  std::vector<ConnState> states(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(RunConnection, workload, c, clients[c].get(),
                         std::cref(options), end, &stop,
                         &states[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_until(end);
  result.cpu_us = SelfCpuMicros() - cpu_before;
  stop.store(true);
  for (std::thread& t : threads) t.join();

  result.window_s = MicrosSince(start, end) / 1e6;
  for (ConnState& s : states) {
    result.all.Append(s.all);
    result.read.Append(s.read);
    result.write.Append(s.write);
    result.query.Append(s.query);
    result.attempted += s.attempted;
    result.failed += s.failed;
    result.wrong.insert(result.wrong.end(), s.wrong.begin(), s.wrong.end());
    result.records.insert(result.records.end(), s.records.begin(),
                          s.records.end());
  }
  return result;
}

}  // namespace perfbench
