#pragma once

// Child processes of the benchmark: the repository's own binaries
// (coopsearch_cli for set-up steps, coopserve for servers and the
// router), each started with fork/exec and always reaped.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// fork + exec `args` with stdout/stderr appended to `log_path` and every
/// other inherited descriptor closed (an inherited socket would keep a
/// peer's connection open past its owner).  Returns the pid, or -1.
inline pid_t spawn(const std::vector<std::string>& args,
                   const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    ::close_range(3, ~0u, 0);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Run a command to completion; true when it exits 0.
inline bool run_to_completion(const std::vector<std::string>& args,
                              const std::string& log_path) {
  const pid_t pid = spawn(args, log_path);
  if (pid < 0) {
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// A running server child.  The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it, so no exit path of the
/// benchmark leaves a process behind.
class Child {
 public:
  Child() = default;
  Child(const std::vector<std::string>& args, const std::string& log_path)
      : pid_(spawn(args, log_path)) {}
  ~Child() { stop(); }
  Child(Child&& o) noexcept : pid_(o.pid_) { o.pid_ = -1; }
  Child& operator=(Child&& o) noexcept {
    if (this != &o) {
      stop();
      pid_ = o.pid_;
      o.pid_ = -1;
    }
    return *this;
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// True while the child has not exited (reaps it if it has).
  bool alive() {
    if (pid_ <= 0) {
      return false;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Graceful stop; returns true when the child exited 0 on SIGTERM.
  bool stop() {
    if (pid_ <= 0) {
      return true;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        break;
      }
      if (std::chrono::steady_clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

/// Poll until `port_file` holds a port, the child dies, or `timeout`
/// passes.  Returns 0 on failure.
inline std::uint16_t wait_port_file(const std::string& port_file, Child& c,
                                    std::chrono::milliseconds timeout) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < until) {
    // The server writes "<port>\n" in place; only a complete line counts.
    std::ifstream in(port_file);
    std::string line;
    if (std::getline(in, line) && !in.eof()) {
      const unsigned long port = std::strtoul(line.c_str(), nullptr, 10);
      if (port > 0 && port < 65536) {
        return static_cast<std::uint16_t>(port);
      }
    }
    if (!c.alive()) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return 0;
}

}  // namespace perfbench
