#pragma once

// The command-line parsing coopserve and coopload share: a table from
// each value-taking flag to a handler that stores its value.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

namespace flags {

/// Stores one flag's value; false when the value is malformed.
using Handler = std::function<bool(const char*)>;
using Table = std::map<std::string, Handler>;

inline bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  out = v;
  return true;
}

inline Handler text(std::string& out) {
  return [&out](const char* v) {
    out = v;
    return true;
  };
}

/// An integer in [lo, hi].
template <typename T>
Handler number(T& out, std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
  return [&out, lo, hi](const char* v) {
    std::uint64_t n = 0;
    if (!parse_u64(v, n) || n < lo || n > hi) {
      return false;
    }
    out = static_cast<T>(n);
    return true;
  };
}

/// A whole number of milliseconds, at least `lo`.
template <typename Duration>
Handler millis(Duration& out, std::uint64_t lo = 0) {
  return [&out, lo](const char* v) {
    std::uint64_t n = 0;
    if (!parse_u64(v, n) || n < lo) {
      return false;
    }
    out = std::chrono::milliseconds(n);
    return true;
  };
}

/// Run argv[i]'s handler on argv[i + 1] and step `i` onto that value.
/// False, after saying why on stderr, for an unknown flag or a missing
/// or malformed value.
inline bool take(const Table& table, int argc, char** argv, int& i) {
  const auto it = table.find(argv[i]);
  if (it == table.end()) {
    std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
    return false;
  }
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
    return false;
  }
  ++i;
  if (!it->second(argv[i])) {
    std::fprintf(stderr, "error: bad value '%s' for %s\n", argv[i],
                 argv[i - 1]);
    return false;
  }
  return true;
}

}  // namespace flags
