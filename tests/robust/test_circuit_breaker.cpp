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

TEST(CircuitBreaker, ConcurrentCallersKeepTheContract) {
  // Several threads admit and record, each failing on its own seeded
  // schedule, with a short window so probes come and go.  Whatever the
  // interleaving, every change a caller sees must fit the state machine:
  // a trip is a CLOSED -> OPEN transition, each probe is the one
  // OPEN -> HALF_OPEN transition of its window and the only attempt in
  // flight then, its success closes and its failure re-opens without a
  // trip, and trips and closes alternate.
  constexpr int kThreads = 4;
  constexpr int kAttempts = 20000;
  CircuitBreaker b(3, std::chrono::microseconds(50));
  std::atomic<int> probes_out{0};
  std::atomic<bool> two_probes{false};
  struct Tally {
    std::uint64_t trips = 0, probes = 0, probe_ok = 0, probe_failed = 0;
    std::uint64_t half_opens = 0, bad_changes = 0, refused = 0;
  };
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Tally& tally = tallies[t];
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kAttempts; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        // Failure bursts: a quarter of the threads' attempts fail, in
        // runs, so the threshold is reached often.
        const bool ok = (rng >> 40) % 8 >= 2 || (i / 64) % 2 == 0;
        CircuitBreaker::Change admitted;
        const Pass pass = b.admit(&admitted);
        if (pass == Pass::kRefused) {
          ++tally.refused;
          tally.bad_changes += admitted.transitioned ? 1 : 0;
          continue;
        }
        if (pass == Pass::kProbe) {
          ++tally.probes;
          tally.half_opens += admitted.transitioned ? 1 : 0;
          if (probes_out.fetch_add(1) != 0) {
            two_probes = true;
          }
          probes_out.fetch_sub(1);
        } else {
          tally.bad_changes += admitted.transitioned ? 1 : 0;
        }
        const CircuitBreaker::Change c = b.record(pass, ok);
        if (pass == Pass::kProbe) {
          // A probe's verdict always moves the state, never as a trip.
          tally.bad_changes += (!c.transitioned || c.tripped) ? 1 : 0;
          (ok ? tally.probe_ok : tally.probe_failed) += 1;
        } else if (c.tripped) {
          ++tally.trips;
          tally.bad_changes += (ok || !c.transitioned) ? 1 : 0;
        } else {
          tally.bad_changes += c.transitioned ? 1 : 0;
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  Tally all;
  for (const Tally& t : tallies) {
    all.trips += t.trips;
    all.probes += t.probes;
    all.probe_ok += t.probe_ok;
    all.probe_failed += t.probe_failed;
    all.half_opens += t.half_opens;
    all.bad_changes += t.bad_changes;
    all.refused += t.refused;
  }
  EXPECT_EQ(all.bad_changes, 0u);
  EXPECT_FALSE(two_probes.load());
  EXPECT_GT(all.trips, 0u);
  EXPECT_GT(all.refused, 0u);
  // Each probe is one OPEN -> HALF_OPEN transition, reported to it alone.
  EXPECT_EQ(all.half_opens, all.probes);
  EXPECT_EQ(all.probes, all.probe_ok + all.probe_failed);
  // Each trip opens an incident that only a probe's success ends, so the
  // closes trail the trips by the incident still open at the end.
  const BreakerState end = b.state();
  EXPECT_NE(end, BreakerState::kHalfOpen);  // every probe was recorded
  EXPECT_EQ(all.probe_ok + (end == BreakerState::kClosed ? 0 : 1),
            all.trips);
}

}  // namespace
