#include "robust/circuit_breaker.hpp"

namespace robust {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "CLOSED";
    case BreakerState::kOpen: return "OPEN";
    case BreakerState::kHalfOpen: return "HALF_OPEN";
  }
  return "?";
}

CircuitBreaker::Pass CircuitBreaker::admit(Change* change) {
  if (state_.load(std::memory_order_acquire) == BreakerState::kClosed) {
    return Pass::kNormal;
  }
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_.load(std::memory_order_relaxed)) {
    case BreakerState::kClosed:
      return Pass::kNormal;  // closed by a probe since the check above
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() < open_until_) {
        return Pass::kRefused;
      }
      state_.store(BreakerState::kHalfOpen, std::memory_order_release);
      if (change != nullptr) {
        change->transitioned = true;
      }
      return Pass::kProbe;
    case BreakerState::kHalfOpen:
      return Pass::kRefused;  // the probe is out; wait for its verdict
  }
  return Pass::kRefused;
}

CircuitBreaker::Change CircuitBreaker::record(Pass pass, bool ok) {
  Change c;
  if (ok && pass != Pass::kProbe &&
      failures_.load(std::memory_order_relaxed) == 0) {
    return c;  // nothing to reset, no state to change
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    failures_.store(0, std::memory_order_relaxed);
    if (pass == Pass::kProbe) {
      state_.store(BreakerState::kClosed, std::memory_order_release);
      c.transitioned = true;
    }
    return c;
  }
  const std::uint64_t failures =
      failures_.load(std::memory_order_relaxed) + 1;
  failures_.store(failures, std::memory_order_relaxed);
  const BreakerState state = state_.load(std::memory_order_relaxed);
  if (pass == Pass::kProbe) {
    // Back to OPEN for another window — not a new trip: the incident is
    // still the one that opened the breaker.
    open_until_ = std::chrono::steady_clock::now() + open_for_;
    state_.store(BreakerState::kOpen, std::memory_order_release);
    c.transitioned = true;
  } else if (state == BreakerState::kClosed && failures >= threshold_) {
    open_until_ = std::chrono::steady_clock::now() + open_for_;
    state_.store(BreakerState::kOpen, std::memory_order_release);
    c.transitioned = true;
    c.tripped = true;
  }
  return c;
}

BreakerState CircuitBreaker::state() const {
  return state_.load(std::memory_order_acquire);
}

std::uint64_t CircuitBreaker::consecutive_failures() const {
  return failures_.load(std::memory_order_relaxed);
}

}  // namespace robust
