#include "cluster/child_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>

namespace cluster {

using coop::Status;
using Clock = std::chrono::steady_clock;

namespace {

/// Wait up to `grace` for `pid` to exit: its wait status when it did (-1
/// when something else already reaped it), nullopt when it is still up.
std::optional<int> reap(pid_t pid, std::chrono::milliseconds grace) {
  const auto until = Clock::now() + grace;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return status;
    }
    if (r < 0 && errno == ECHILD) {
      return -1;
    }
    if (Clock::now() >= until) {
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

coop::Expected<pid_t> spawn(const std::string& exe,
                            const std::vector<std::string>& args,
                            const std::string& log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::internal(std::string("fork(): ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      (void)::dup2(log, STDOUT_FILENO);
      (void)::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    // Drop every inherited descriptor: a child that keeps dup'd copies
    // of the supervisor's sockets holds those connections open after the
    // supervisor closes them, so peers never see EOF and teardown hangs
    // in recv().
#ifdef SYS_close_range
    (void)::syscall(SYS_close_range, 3u, ~0u, 0u);
#else
    for (int i = 3; i < 1024; ++i) {
      ::close(i);
    }
#endif
    ::execv(exe.c_str(), argv.data());
    _exit(127);  // execv failed; the parent sees a fast exit
  }
  return pid;
}

coop::Expected<std::uint16_t> read_port_file(const std::string& path,
                                             Clock::time_point give_up,
                                             pid_t pid) {
  while (Clock::now() < give_up) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in && (in >> port) && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
      return Status::unavailable("process " + std::to_string(pid) +
                                 " exited before writing '" + path + "'");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::deadline_exceeded("port file '" + path +
                                   "' never appeared; see the child's log");
}

bool terminate_proc(pid_t& pid) {
  if (pid <= 0) {
    return false;
  }
  (void)::kill(pid, SIGTERM);
  std::optional<int> status = reap(pid, std::chrono::seconds(10));
  if (!status) {
    (void)::kill(pid, SIGKILL);
    (void)reap(pid, std::chrono::seconds(2));
  }
  pid = -1;
  return status && *status != -1 && WIFEXITED(*status) &&
         WEXITSTATUS(*status) == 0;
}

bool kill_proc(pid_t& pid) {
  if (pid <= 0) {
    return false;
  }
  const bool sent = ::kill(pid, SIGKILL) == 0;
  (void)reap(pid, std::chrono::seconds(5));
  pid = -1;
  return sent;
}

}  // namespace cluster
