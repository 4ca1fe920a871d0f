#pragma once

// Child processes for the multi-process soaks (the cluster soak's shard
// fleet and coopload's kill -9 crash soak): one fork/exec spawner, and
// the helpers that find, stop and reap what it launched.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "robust/status.hpp"

namespace cluster {

/// fork/exec `exe args...` with stdout+stderr appended to `log_path` and
/// every other inherited descriptor closed.
[[nodiscard]] coop::Expected<pid_t> spawn(const std::string& exe,
                                          const std::vector<std::string>& args,
                                          const std::string& log_path);

/// Poll `path` for coopserve's --port-file line until `give_up`.  With
/// `pid` set, fail as soon as that child exits (it died while booting).
[[nodiscard]] coop::Expected<std::uint16_t> read_port_file(
    const std::string& path, std::chrono::steady_clock::time_point give_up,
    pid_t pid = -1);

/// SIGTERM `pid` (SIGKILL if it has not exited within 10 s), reap it and
/// reset it to -1.  True when it exited 0 by itself — a clean drain.
bool terminate_proc(pid_t& pid);

/// SIGKILL `pid`, reap it and reset it to -1.  False when the signal
/// could not be sent.
bool kill_proc(pid_t& pid);

}  // namespace cluster
