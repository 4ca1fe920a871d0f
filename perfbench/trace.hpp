#pragma once

// In-memory span recorder for the traced run.  Spans are recorded from
// the benchmark's own code around its calls into the program (client
// round trips, in-process module calls); nothing inside the program is
// instrumented.  Each thread appends to its own SpanLog; ids come from
// one shared counter so parents resolve across threads.  The logs are
// written out once, when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  std::uint64_t request_id = 0;
  const char* name = "";  ///< static string
  Clock::time_point start;
  Clock::time_point end;
};

class SpanIds {
 public:
  std::uint64_t next() { return next_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> next_{1};
};

/// One thread's spans.  A disabled log records nothing and hands out id
/// 0, so untraced code paths pay one branch per call site.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(SpanIds* ids, std::size_t reserve) : ids_(ids) {
    spans_.reserve(reserve);
  }

  /// Record a finished span; returns its id.
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request_id = 0) {
    if (ids_ == nullptr) {
      return 0;
    }
    const std::uint64_t id = ids_->next();
    spans_.push_back(Span{id, parent, request_id, name, start, end});
    return id;
  }

  /// Reserve an id for a span whose children are recorded before it
  /// ends; finish it with record_with_id.
  std::uint64_t open_id() { return ids_ == nullptr ? 0 : ids_->next(); }
  void record_with_id(std::uint64_t id, const char* name,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t parent = 0) {
    if (ids_ != nullptr) {
      spans_.push_back(Span{id, parent, 0, name, start, end});
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  SpanIds* ids_ = nullptr;
  std::vector<Span> spans_;
};

/// Write every span as one tab-separated line (times in ns from `t0`).
/// Returns false if the file could not be written.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        Clock::time_point t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("id\tparent\trequest_id\tname\tstart_ns\tend_ns\n", f);
  const auto ns = [t0](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count());
  };
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id), s.name,
                   ns(s.start), ns(s.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
