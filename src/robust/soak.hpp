#pragma once

// The soak kernel: what every fault-injection soak shares (DESIGN.md §9).
//
// A soak's outcome derives from SoakResult and declares its counters
// once, as its own fields, listed once with their roles:
//
//   void fields(robust::FieldList& v) const {
//     v.count("batches", batches);          // reported
//     v.wrong("wrong_answers", wrong);      // answers the oracle refutes
//     v.failure("failed", failed);          // unexpected failures
//     v.must("drained_in_grace", drained,   // the soak's own conditions
//            "drain did not finish inside its grace window");
//     v.goal("quota_sheds", quota_sheds);   // must reach a minimum (1)
//   }
//
// From that listing the kernel derives the verdict ladder (wrong answers,
// then unexpected failures, then the soak's own conditions, then goals
// not observed, then OK), the JSON document and the human summary line.
// Worker threads bump counters with bump() and the run loop polls goals
// through peek(), both std::atomic_ref, so no soak keeps a second,
// atomic copy of its counters.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace robust {

/// Add `n` to an outcome counter that other threads bump or poll.
inline void bump(std::uint64_t& counter, std::uint64_t n = 1) {
  std::atomic_ref<std::uint64_t>(counter).fetch_add(n,
                                                    std::memory_order_relaxed);
}

/// Read an outcome counter while its writers still run (the outcome
/// itself is never a const object while it runs).
inline std::uint64_t peek(const std::uint64_t& counter) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

/// One listed field of an outcome.
struct Field {
  enum Role { kCount, kWrong, kFailure, kMust, kGoal };
  Role role = kCount;
  std::string_view name;
  const std::uint64_t* n = nullptr;  ///< counters
  const bool* flag = nullptr;        ///< kMust, and flag goals
  std::uint64_t min = 1;             ///< kGoal on a counter
  std::string_view why;              ///< kMust: the failure text
};

/// The visitor every fields() listing fills, in listing order.  It keeps
/// pointers, so every value listed must be a member of the outcome.
class FieldList {
 public:
  void count(std::string_view name, const std::uint64_t& n) {
    add(Field::kCount, name, &n, nullptr);
  }
  void wrong(std::string_view name, const std::uint64_t& n) {
    add(Field::kWrong, name, &n, nullptr);
  }
  void failure(std::string_view name, const std::uint64_t& n) {
    add(Field::kFailure, name, &n, nullptr);
  }
  void must(std::string_view name, const bool& holds, std::string_view why) {
    add(Field::kMust, name, nullptr, &holds, 1, why);
  }
  void goal(std::string_view name, const std::uint64_t& n,
            std::uint64_t min = 1) {
    add(Field::kGoal, name, &n, nullptr, min);
  }
  void goal(std::string_view name, const bool& reached) {
    add(Field::kGoal, name, nullptr, &reached);
  }

  std::vector<Field> items;

 private:
  void add(Field::Role role, std::string_view name, const std::uint64_t* n,
           const bool* flag, std::uint64_t min = 1,
           std::string_view why = {}) {
    items.push_back({role, name, n, flag, min, why});
  }
};

/// What every soak outcome carries besides its own counters, which it
/// lists in `void fields(FieldList& v) const`.
struct SoakResult {
  std::string first_failure;  ///< text of the first unexpected failure
  bool goals_met = false;     ///< every rung of the verdict ladder held
  std::string verdict;        ///< one-line human summary
};

/// An outcome's listing, pointing into `out`.
template <class Outcome>
[[nodiscard]] FieldList listing(const Outcome& out) {
  FieldList v;
  out.fields(v);
  return v;
}

/// Counts unexpected failures and keeps the text of the first one, from
/// any thread.
class FirstFailure {
 public:
  explicit FirstFailure(std::string& first) : first_(first) {}
  void operator()(std::uint64_t& counter, const std::string& what);

 private:
  std::mutex mu_;
  std::string& first_;
};

/// True once every goal of a running soak was observed.
[[nodiscard]] bool goals_reached(const FieldList& fields);
template <class Outcome>
[[nodiscard]] bool goals_reached(const Outcome& out) {
  return goals_reached(listing(out));
}

/// Judge a finished soak down the ladder: sets goals_met and verdict
/// ("OK: <ok_summary>" or "FAIL: <the first rung that failed>").
void judge(const FieldList& fields, SoakResult& out,
           std::string_view ok_summary);
template <class Outcome>
void judge(Outcome& out, std::string_view ok_summary) {
  judge(listing(out), out, ok_summary);
}

/// Sleep until `duration` has passed and `goals()` holds, or at most
/// 6 x duration + 2 s: the goals are probabilistic in time, not in
/// outcome, and the cap bounds a pathological scheduler.
void run_until_goals(std::chrono::milliseconds duration,
                     const std::function<bool()>& goals);

/// Poll `pred` every `poll` until it holds or `give_up` passes; returns
/// its last value.
bool wait_until(const std::function<bool()>& pred,
                std::chrono::steady_clock::time_point give_up,
                std::chrono::milliseconds poll = std::chrono::milliseconds(10));

/// JSON object builder (the soak and bench documents and their context).
class JsonFields {
 public:
  void count(std::string_view key, std::uint64_t n);
  void real(std::string_view key, double x);  ///< one decimal
  void flag(std::string_view key, bool b);
  void text(std::string_view key, std::string_view s);
  /// A value that is already JSON (a nested object or array).
  void raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// Write `doc` and a newline to stdout (empty `path`) or to the file
/// `path`.  False,
/// with a message on stderr, when the file cannot be written.
bool emit_json(const std::string& path, const std::string& doc);

/// Where a judged soak is reported.
struct ReportOptions {
  bool json = false;
  std::string json_path;      ///< empty: the document goes to stdout
  std::FILE* human = stderr;  ///< verdict and summary line
  /// Context fields that lead the JSON document (seed, duration, ...).
  std::function<void(JsonFields&)> context;
};

/// Report a judged soak: "<name>: <verdict>" and the summary line
/// "<name> OK|FAILED: k=v ..." on opts.human, and with opts.json one
/// {"soak":"<label>", <context>, <fields>, "goals_met", "first_failure",
/// "verdict"} document.  Returns the exit status: 0 only when the soak
/// passed and its document was written.
int report(std::string_view name, std::string_view label,
           const FieldList& fields, const SoakResult& out,
           const ReportOptions& opts);
template <class Outcome>
int report(std::string_view name, std::string_view label,
           const Outcome& out, const ReportOptions& opts) {
  return report(name, label, listing(out), out, opts);
}

}  // namespace robust
