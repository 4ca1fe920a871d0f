#pragma once

// Over-the-wire chaos soak (DESIGN.md §11): stand up a real Server on
// loopback, aim a seeded client fleet at it, and inject every
// transport-level fault the serving plane claims to survive:
//
//   connection resets mid-batch      (SO_LINGER(0) aborts)
//   truncated / length-lying / bit-flipped frames (robust::corrupt_frame)
//   slow readers                     (response left unread for a while)
//   deadline squeezes                (1 ns request deadlines)
//   per-tenant quota storms          (a hot tenant bursting past its bucket)
//   SWAP publish storms + LOAD/UNLOAD cycles under traffic
//   a graceful drain begun mid-traffic
//
// and assert the contract: the server never crashes, every admitted
// path/point answer matches the source-structure oracle bit for bit,
// every shed / expired / refused request got a *typed* error (never a
// hang, never a silent close of a well-formed stream), and the drain
// finishes every in-flight batch inside its grace window.
//
// Shared by tests/net/test_wire_soak.cpp (short) and coopserve --soak
// (the >=10 s CI soak), mirroring serve::run_chaos_soak.

#include <chrono>
#include <cstdint>
#include <string>

#include "robust/soak.hpp"
#include "robust/status.hpp"

namespace net {

struct WireSoakOptions {
  std::uint64_t seed = 1;
  std::chrono::milliseconds duration{2000};
  std::size_t clients = 4;
  std::size_t server_workers = 3;
  std::size_t engine_threads = 4;
  std::uint32_t tree_height = 6;
  std::size_t tree_entries = 4000;
  std::size_t pointloc_regions = 24;
  std::size_t batch_queries = 64;
  /// Scratch snapshot files (overwritten, removed on success).
  std::string snap_path = "wire_soak.snap";
  std::string point_snap_path = "wire_soak_points.snap";
  std::chrono::nanoseconds drain_grace{std::chrono::seconds(5)};
  bool verbose = false;
};

struct WireSoakOutcome : robust::SoakResult {
  // Client-side view.
  std::uint64_t batches = 0;          ///< path/point batches submitted
  std::uint64_t answered = 0;         ///< served OK
  std::uint64_t wrong_answers = 0;    ///< oracle mismatches (must be 0)
  std::uint64_t failed = 0;           ///< unexpected status (must be 0)
  std::uint64_t deadline_errors = 0;  ///< typed DEADLINE_EXCEEDED received
  std::uint64_t quota_sheds = 0;      ///< typed RESOURCE_EXHAUSTED received
  std::uint64_t drain_refusals = 0;   ///< typed UNAVAILABLE during drain
  std::uint64_t malformed_injected = 0;
  std::uint64_t malformed_rejected = 0;  ///< typed CORRUPTED came back
  std::uint64_t resets_injected = 0;
  std::uint64_t slow_reads = 0;
  std::uint64_t reconnects = 0;
  // Conductor-side view.
  std::uint64_t swaps = 0;
  std::uint64_t load_unload_cycles = 0;
  // Lifecycle.
  bool drained_in_grace = false;

  void fields(robust::FieldList& v) const {
    v.count("batches", batches);
    v.goal("answered", answered);
    v.wrong("wrong_answers", wrong_answers);
    v.failure("failed", failed);
    v.goal("deadline_errors", deadline_errors);
    v.goal("quota_sheds", quota_sheds);
    v.count("drain_refusals", drain_refusals);
    v.count("malformed_injected", malformed_injected);
    v.goal("malformed_rejected", malformed_rejected);
    v.goal("resets_injected", resets_injected);
    v.goal("slow_reads", slow_reads);
    v.count("reconnects", reconnects);
    v.goal("swaps", swaps);
    v.goal("load_unload_cycles", load_unload_cycles);
    v.must("drained_in_grace", drained_in_grace,
           "drain did not complete within the grace window");
  }
};

/// Run the soak.  Setup errors (fixture build, snapshot IO, server
/// start) are the returned Status; a completed soak always returns a
/// judged outcome.  Runs for `duration`, extending (up to ~6x) until
/// every goal is observed.
[[nodiscard]] coop::Expected<WireSoakOutcome> run_wire_soak(
    const WireSoakOptions& opts);

}  // namespace net
