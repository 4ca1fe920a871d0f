// The shared circuit-breaker state machine (robust/circuit_breaker.hpp)
// that both serve::Frontend and the cluster router drive: the trip at
// exactly K, one probe per open window however many callers race for
// it, a failed probe re-arming the window without a new trip, and only
// the probe's success closing the breaker.

#include "robust/circuit_breaker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace {

using robust::BreakerState;
using robust::CircuitBreaker;
using Pass = CircuitBreaker::Pass;

constexpr auto kWindow = std::chrono::milliseconds(20);

/// Trip a threshold-1 breaker and wait out its window.
void trip_and_wait(CircuitBreaker& b) {
  ASSERT_EQ(b.admit(), Pass::kNormal);
  ASSERT_TRUE(b.record(Pass::kNormal, false).tripped);
  std::this_thread::sleep_for(kWindow + std::chrono::milliseconds(5));
}

TEST(CircuitBreaker, TripsAtExactlyK) {
  CircuitBreaker b(3, kWindow);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(b.admit(), Pass::kNormal);
    const CircuitBreaker::Change c = b.record(Pass::kNormal, false);
    EXPECT_FALSE(c.tripped);
    EXPECT_FALSE(c.transitioned);
    EXPECT_EQ(b.state(), BreakerState::kClosed);
  }
  ASSERT_EQ(b.admit(), Pass::kNormal);
  const CircuitBreaker::Change c = b.record(Pass::kNormal, false);
  EXPECT_TRUE(c.tripped);
  EXPECT_TRUE(c.transitioned);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.consecutive_failures(), 3u);
  EXPECT_EQ(b.admit(), Pass::kRefused);
}

TEST(CircuitBreaker, SuccessResetsTheStreak) {
  CircuitBreaker b(2, kWindow);
  (void)b.record(Pass::kNormal, false);
  (void)b.record(Pass::kNormal, true);
  EXPECT_FALSE(b.record(Pass::kNormal, false).tripped);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ExactlyOneProbeWhenCallersRace) {
  CircuitBreaker b(1, kWindow);
  trip_and_wait(b);
  constexpr int kCallers = 16;
  std::atomic<int> ready{0};
  std::atomic<int> probes{0}, refused{0}, other{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) {
      }
      switch (b.admit()) {
        case Pass::kProbe: probes.fetch_add(1); break;
        case Pass::kRefused: refused.fetch_add(1); break;
        case Pass::kNormal: other.fetch_add(1); break;
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(probes.load(), 1);
  EXPECT_EQ(refused.load(), kCallers - 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, FailedProbeReArmsTheWindowWithoutATrip) {
  CircuitBreaker b(1, kWindow);
  trip_and_wait(b);
  CircuitBreaker::Change opened;
  ASSERT_EQ(b.admit(&opened), Pass::kProbe);
  EXPECT_TRUE(opened.transitioned);  // OPEN -> HALF_OPEN
  const CircuitBreaker::Change c = b.record(Pass::kProbe, false);
  EXPECT_TRUE(c.transitioned);
  EXPECT_FALSE(c.tripped);  // still the incident that opened it
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.admit(), Pass::kRefused);  // a fresh window
  std::this_thread::sleep_for(kWindow + std::chrono::milliseconds(5));
  EXPECT_EQ(b.admit(), Pass::kProbe);
}

TEST(CircuitBreaker, OnlyTheProbeCloses) {
  CircuitBreaker b(2, kWindow);
  // An attempt admitted while CLOSED is still in flight when two others
  // fail and trip the breaker...
  ASSERT_EQ(b.admit(), Pass::kNormal);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(b.admit(), Pass::kNormal);
    (void)b.record(Pass::kNormal, false);
  }
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  // ...and its late success says nothing about the endpoint now.
  const CircuitBreaker::Change c = b.record(Pass::kNormal, true);
  EXPECT_FALSE(c.transitioned);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.admit(), Pass::kRefused);
  // The probe's success is what closes it.
  std::this_thread::sleep_for(kWindow + std::chrono::milliseconds(5));
  ASSERT_EQ(b.admit(), Pass::kProbe);
  EXPECT_TRUE(b.record(Pass::kProbe, true).transitioned);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.admit(), Pass::kNormal);
}

}  // namespace
