// Child processes of the benchmark: the laxml_server under test and the
// laxml_fsck check. Every process started here is stopped and reaped
// before its owner goes away.

#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct ServerConfig {
  std::string binary;    ///< Path of laxml_server.
  std::string db;        ///< Store file.
  std::string run_dir;   ///< Port file and logs go here.
  bool wal = false;           ///< --wal: log commits, unsynced.
  bool sync_commits = false;  ///< --sync-commits: group commit + fdatasync.
  /// Traced server: --trace-out, and every op in the slow log.
  std::string trace_out;
  std::string slow_log;
};

/// A running laxml_server. The destructor kills (SIGKILL) and reaps a
/// server that was not stopped.
class ServerProcess {
 public:
  /// Forks and execs the server on an ephemeral port and waits for its
  /// port file (the caller pings to know it serves).
  static laxml::Result<std::unique_ptr<ServerProcess>> Start(
      const ServerConfig& config);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// SIGTERM (graceful drain + checkpoint) and wait; error unless the
  /// server exits 0 within the timeout.
  laxml::Status Stop();

  /// VmHWM (peak resident set) in MiB from /proc; NaN when unreadable.
  double PeakRssMb() const;
  /// utime + stime in microseconds from /proc; 0 when unreadable.
  double CpuMicros() const;

 private:
  ServerProcess(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Runs `argv` to completion with stdout+stderr appended to `log_path`;
/// returns its exit code (-1 when it could not run or was signalled).
int RunTool(const std::vector<std::string>& argv,
            const std::string& log_path);

/// Restricts this process — and every thread and child it starts later
/// — to the first `count` CPUs it may run on. Returns how many it got
/// (0 when affinity is unavailable).
int PinToCpus(int count);

/// This process's user + system CPU time, microseconds.
double SelfCpuMicros();

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
