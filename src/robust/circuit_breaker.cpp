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
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return Pass::kNormal;
    case BreakerState::kOpen:
      if (std::chrono::steady_clock::now() < open_until_) {
        return Pass::kRefused;
      }
      state_ = BreakerState::kHalfOpen;
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
  std::lock_guard<std::mutex> lock(mu_);
  Change c;
  if (ok) {
    failures_ = 0;
    if (pass == Pass::kProbe) {
      state_ = BreakerState::kClosed;
      c.transitioned = true;
    }
    return c;
  }
  ++failures_;
  if (pass == Pass::kProbe) {
    // Back to OPEN for another window — not a new trip: the incident is
    // still the one that opened the breaker.
    state_ = BreakerState::kOpen;
    open_until_ = std::chrono::steady_clock::now() + open_for_;
    c.transitioned = true;
  } else if (state_ == BreakerState::kClosed && failures_ >= threshold_) {
    state_ = BreakerState::kOpen;
    open_until_ = std::chrono::steady_clock::now() + open_for_;
    c.transitioned = true;
    c.tripped = true;
  }
  return c;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

}  // namespace robust
