#include "src/process.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using laxml::Result;
using laxml::Status;

/// fork + exec with stdout/stderr redirected to `log_path` (appending).
pid_t Spawn(const std::vector<std::string>& argv,
            const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
  }
  ::execv(args[0], args.data());
  ::_exit(127);
}

/// waitpid with a deadline; returns the wait status or -1 on timeout.
int WaitWithTimeout(pid_t pid, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return -1;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Whether `pid` has a handler installed for `sig` (/proc SigCgt mask).
bool CatchesSignal(pid_t pid, int sig) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) == 0) {
      const unsigned long long mask =
          std::strtoull(line.c_str() + 7, nullptr, 16);
      return (mask >> (sig - 1)) & 1;
    }
  }
  return false;
}

void KillAndReap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const ServerConfig& config) {
  const std::string port_file = config.run_dir + "/server.port";
  ::unlink(port_file.c_str());
  std::vector<std::string> argv = {config.binary,  "--db",
                                   config.db,      "--port",
                                   "0",            "--port-file",
                                   port_file};
  if (config.wal) argv.push_back("--wal");
  if (config.sync_commits) argv.push_back("--sync-commits");
  if (!config.trace_out.empty()) {
    argv.insert(argv.end(), {"--trace-out", config.trace_out});
  }
  if (!config.slow_log.empty()) {
    // The server refuses a zero threshold with --slow-log; 1 us logs
    // every request it serves.
    argv.insert(argv.end(),
                {"--slow-op-us", "1", "--slow-log", config.slow_log});
  }
  const pid_t pid = Spawn(argv, config.run_dir + "/server.log");
  if (pid < 0) return Status::IOError("fork laxml_server");
  // The port file is written after bind; poll for it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      return Status::IOError("laxml_server exited during startup; see " +
                             config.run_dir + "/server.log");
    }
    // The server writes "<port>\n" non-atomically: wait for the newline.
    std::ifstream in(port_file);
    std::string line;
    const bool whole = std::getline(in, line) && !in.eof();
    const unsigned long port = whole ? std::strtoul(line.c_str(), nullptr, 10)
                                     : 0;
    if (port > 0 && port <= 65535) {
      return std::unique_ptr<ServerProcess>(
          new ServerProcess(pid, static_cast<uint16_t>(port)));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  KillAndReap(pid);
  return Status::IOError("laxml_server did not publish its port");
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) KillAndReap(pid_);
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  // laxml_server starts serving before it installs its SIGTERM handler;
  // a SIGTERM in between would kill it instead of draining it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!CatchesSignal(pid_, SIGTERM) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid_, SIGTERM);
  const int status = WaitWithTimeout(pid_, 60000);
  if (status == -1) {
    KillAndReap(pid_);
    pid_ = -1;
    return Status::Aborted("laxml_server did not exit after SIGTERM");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Aborted("laxml_server exited abnormally (status " +
                           std::to_string(status) + ")");
  }
  return Status::OK();
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

double ServerProcess::CpuMicros() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 overall, i.e. 12th and 13th after ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;
  double utime = 0, stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int RunTool(const std::vector<std::string>& argv,
            const std::string& log_path) {
  const pid_t pid = Spawn(argv, log_path);
  if (pid < 0) return -1;
  const int status = WaitWithTimeout(pid, 120000);
  if (status == -1) {
    KillAndReap(pid);
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int pinned = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && pinned < count; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++pinned;
    }
  }
  if (pinned == 0 || ::sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return 0;
  }
  return pinned;
}

double SelfCpuMicros() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

}  // namespace perfbench
