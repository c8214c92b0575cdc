#include "src/trace_join.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>

#include "net/wire.h"
#include "obs/trace.h"

namespace perfbench {

laxml::Result<ServerSpans> ReadServerSpans(const std::string& path) {
  laxml::Result<laxml::obs::TraceDump> dump = laxml::obs::ReadTraceFile(path);
  if (!dump.ok()) return dump.status();
  std::set<std::string> worker_names;
  for (uint8_t op = 0; op <= laxml::net::kMaxOpCode; ++op) {
    worker_names.insert(
        laxml::net::OpCodeName(static_cast<laxml::net::OpCode>(op)));
  }
  ServerSpans spans;
  for (const laxml::obs::TraceEvent& e : dump->events) {
    const std::string& name = dump->names[e.name_id];
    const double dur = static_cast<double>(e.dur_us);
    if (name == "wal_fsync") spans.fsync_us.push_back(dur);
    if (name == "group_commit_wait") spans.commit_wait_all_us.push_back(dur);
    if (e.trace_id == 0) continue;
    if (name == "group_commit_wait") {
      spans.commit_wait_us[e.trace_id] += dur;
    } else if (worker_names.count(name) != 0) {
      spans.worker_us[e.trace_id] = dur;
    }
  }
  return spans;
}

namespace {

/// The number after `"key":` in a JSON line (0 when absent).
double JsonNumber(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

uint64_t JsonU64(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::string JsonString(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + needle.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

}  // namespace

laxml::Result<std::vector<SlowLogEntry>> ReadSlowLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) return laxml::Status::IOError("cannot read slow log " + path);
  std::vector<SlowLogEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    SlowLogEntry e;
    e.trace_id = JsonU64(line, "trace_id");
    e.op = JsonString(line, "op");
    e.unix_us = JsonU64(line, "unix_us");
    e.elapsed_us = JsonNumber(line, "elapsed_us");
    e.latch_wait_us = JsonNumber(line, "latch_wait_us");
    e.tokens_scanned = JsonNumber(line, "tokens_scanned");
    entries.push_back(std::move(e));
  }
  return entries;
}

uint64_t PeakOverlap(const std::vector<SlowLogEntry>& entries) {
  // Sweep: +1 at admission, -1 at completion; ends sort before starts
  // at the same instant.
  std::vector<std::pair<double, int>> events;
  for (const SlowLogEntry& e : entries) {
    const double end = static_cast<double>(e.unix_us);
    events.push_back({end - e.elapsed_us, +1});
    events.push_back({end, -1});
  }
  std::sort(events.begin(), events.end());
  int64_t depth = 0, peak = 0;
  for (const auto& [at, delta] : events) {
    depth += delta;
    peak = std::max(peak, depth);
  }
  return static_cast<uint64_t>(peak);
}

Breakdown Decompose(double client_us, double worker_us, double latch_us,
                    double commit_us, double engine_us) {
  Breakdown b;
  b.client_us = client_us;
  b.transit_us = client_us - worker_us;
  b.latch_us = latch_us;
  b.commit_us = commit_us;
  b.engine_us = engine_us;
  b.remainder_us = worker_us - latch_us - commit_us - engine_us;
  return b;
}

}  // namespace perfbench
