#pragma once

// Readers for the operator's cost metrics, taken from outside the server
// processes: CPU time from /proc/<pid>/stat and peak resident memory from
// /proc/<pid>/status.  The parsers take the file text so the self-test can
// feed them crafted input; the readers open the real files.

#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace perfbench {

inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// utime + stime (clock ticks, all threads) from the text of
/// /proc/<pid>/stat.  The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last ')'.
inline std::optional<std::uint64_t> parse_stat_cpu_ticks(
    std::string_view text) {
  const std::size_t close = text.rfind(')');
  if (close == std::string_view::npos) {
    return std::nullopt;
  }
  // After ") " come fields 3 (state) onward; utime and stime are fields
  // 14 and 15, i.e. the 12th and 13th tokens after the name.
  std::string_view rest = text.substr(close + 1);
  std::uint64_t utime = 0, stime = 0;
  int field = 2;
  std::size_t pos = 0;
  while (pos < rest.size() && field < 15) {
    while (pos < rest.size() && rest[pos] == ' ') {
      ++pos;
    }
    std::size_t end = rest.find(' ', pos);
    if (end == std::string_view::npos) {
      end = rest.size();
    }
    ++field;
    const std::string_view tok = rest.substr(pos, end - pos);
    if (field == 14 || field == 15) {
      std::uint64_t v = 0;
      const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (r.ec != std::errc() || r.ptr != tok.data() + tok.size()) {
        return std::nullopt;
      }
      (field == 14 ? utime : stime) = v;
    }
    pos = end;
  }
  if (field < 15) {
    return std::nullopt;
  }
  return utime + stime;
}

/// Value in kB of one "Key:   N kB" line of /proc/<pid>/status text.
inline std::optional<std::uint64_t> parse_status_kb(std::string_view text,
                                                    std::string_view key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
    }
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::size_t i = key.size() + 1;
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
        ++i;
      }
      std::uint64_t v = 0;
      const auto r = std::from_chars(line.data() + i,
                                     line.data() + line.size(), v);
      if (r.ec != std::errc()) {
        return std::nullopt;
      }
      return v;
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

/// Host-wide CPU ticks from the "cpu" line of /proc/stat: the total over
/// the eight time states (user .. steal; guest time is already inside
/// user), and the ticks stolen by the hypervisor (a noisy-neighbour
/// signal recorded beside each window).
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline std::optional<HostCpu> parse_host_cpu(std::string_view text) {
  if (text.substr(0, 4) != "cpu ") {
    return std::nullopt;
  }
  HostCpu out;
  std::size_t pos = 4;
  for (int field = 1; field <= 8 && pos < text.size(); ++field) {
    while (pos < text.size() && text[pos] == ' ') {
      ++pos;
    }
    std::uint64_t v = 0;
    const auto r = std::from_chars(text.data() + pos, text.data() + text.size(),
                                   v);
    if (r.ec != std::errc()) {
      break;
    }
    pos = static_cast<std::size_t>(r.ptr - text.data());
    out.total += v;
    if (field == 8) {
      out.steal = v;
    }
  }
  return out;
}

inline HostCpu host_cpu() {
  const auto text = read_file("/proc/stat");
  return text ? parse_host_cpu(*text).value_or(HostCpu{}) : HostCpu{};
}

/// CPU seconds (user + system, every thread) a live process has used.
inline std::optional<double> process_cpu_seconds(pid_t pid) {
  const auto text = read_file("/proc/" + std::to_string(pid) + "/stat");
  if (!text) {
    return std::nullopt;
  }
  const auto ticks = parse_stat_cpu_ticks(*text);
  if (!ticks) {
    return std::nullopt;
  }
  return static_cast<double>(*ticks) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a live process, in MiB.
inline std::optional<double> process_peak_rss_mb(pid_t pid) {
  const auto text = read_file("/proc/" + std::to_string(pid) + "/status");
  if (!text) {
    return std::nullopt;
  }
  const auto kb = parse_status_kb(*text, "VmHWM");
  if (!kb) {
    return std::nullopt;
  }
  return static_cast<double>(*kb) / 1024.0;
}

}  // namespace perfbench
