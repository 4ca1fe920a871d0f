#pragma once

// One circuit-breaker state machine (DESIGN.md §15), shared by the
// serving frontend (one breaker per collection, fed by degraded batches)
// and the router (one breaker per backend endpoint, fed by failed shard
// round trips):
//
//   CLOSED     every attempt passes; K consecutive failures trip OPEN.
//   OPEN       attempts are refused until the open window elapses; the
//              first caller after that is admitted as the one probe.
//   HALF_OPEN  the probe is in flight and everyone else is refused.  Its
//              success closes the breaker; its failure re-opens it for
//              another window without counting a new trip.
//
// Only the probe closes the breaker: a success from an attempt admitted
// before the trip says nothing about the endpoint now.  Callers keep
// their own metrics, trace events and OPEN policy (the frontend serves
// sequentially or sheds; the router skips the endpoint).  Thread-safe.
//
// The state and the failure count are atomics, so the common case takes
// no lock: admit while CLOSED, and record(ok) with no failure counted.
// Failures and every state change lock a mutex; the state is only ever
// written under it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace robust {

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
[[nodiscard]] const char* to_string(BreakerState s);

class CircuitBreaker {
 public:
  /// How an attempt was admitted.
  enum class Pass { kRefused, kNormal, kProbe };

  /// What a call changed, for the caller's metrics and trace events.
  struct Change {
    bool transitioned = false;  ///< the state differs from before the call
    bool tripped = false;       ///< CLOSED -> OPEN: a new incident
  };

  CircuitBreaker(std::uint64_t failure_threshold,
                 std::chrono::nanoseconds open_for)
      : threshold_(failure_threshold), open_for_(open_for) {}

  /// Admit one attempt.  `change` (optional) reports OPEN -> HALF_OPEN.
  [[nodiscard]] Pass admit(Change* change = nullptr);

  /// Record the outcome of an attempt `admit` passed (never kRefused).
  Change record(Pass pass, bool ok);

  [[nodiscard]] BreakerState state() const;
  [[nodiscard]] std::uint64_t consecutive_failures() const;

 private:
  std::mutex mu_;  ///< serializes failures and state changes
  const std::uint64_t threshold_;
  const std::chrono::nanoseconds open_for_;
  std::atomic<BreakerState> state_{BreakerState::kClosed};
  std::chrono::steady_clock::time_point open_until_{};  ///< under mu_
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace robust
