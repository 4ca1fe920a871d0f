#pragma once

// Background integrity scrubber (DESIGN.md §9): the detection-and-repair
// half of the overload-safe frontend.  A snapshot that validated at
// open() can still rot while served — bad DRAM, a stray write through a
// debugging tool, or (in the chaos harness) a deliberate bit-flip into a
// writable serving copy.  The scrubber periodically
//
//   1. re-verifies every section CRC-32C of the current snapshot's
//      mapping (snapshot::verify), and
//   2. differentially samples random root-to-leaf queries against a
//      caller-supplied oracle (the source tree's own binary search),
//
// and on any mismatch *quarantines* the generation and atomically rolls
// the Registry back to the last-known-good one (rebuild-and-swap, never
// in-place repair — Afshani–Cheng's lower bound is the design hint that
// patching a cascaded structure in place is a losing game).  Clean passes
// mark the generation good, which is what makes it a rollback target.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "robust/status.hpp"
#include "snapshot/registry.hpp"

namespace serve {

/// Expected proper index for (node, y) — typically
/// `tree.catalog(node).find(y)` on the source tree.  Must be callable
/// from the scrubber thread.
using ScrubOracle =
    std::function<std::uint32_t(std::uint32_t node, cat::Key y)>;

struct ScrubberOptions {
  std::chrono::milliseconds interval{50};
  /// Differential sample queries per pass (0 disables sampling).
  std::size_t samples = 32;
  /// Sample keys are drawn uniformly from [0, sample_key_range).
  cat::Key sample_key_range = 1'000'000'000;
  bool verify_crc = true;
  std::uint64_t seed = 1;
};

struct ScrubberStats {
  std::uint64_t passes = 0;
  std::uint64_t clean_passes = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t differential_failures = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t rollback_failures = 0;  ///< no good target / lost race
  std::uint64_t last_bad_version = 0;
  std::uint64_t last_rollback_to = 0;
  std::string last_failure;  ///< human-readable detection message
};

class Scrubber {
 public:
  /// The registry must outlive the scrubber.  `oracle` may be empty
  /// (CRC-only scrubbing); sampling is only performed for kCascade
  /// snapshots.
  Scrubber(snapshot::Registry& registry, ScrubberOptions opts,
           ScrubOracle oracle = {});
  ~Scrubber();
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Start / stop the background thread (idempotent).  run_pass() can
  /// also be called directly for deterministic single-pass tests.
  void start();
  void stop();

  /// One synchronous scrub pass over the current generation.  Returns
  /// OK when the pass was clean (or there was nothing to scrub); the
  /// detection Status otherwise — after quarantine + rollback have
  /// already been performed.
  coop::Status run_pass();

  [[nodiscard]] ScrubberStats stats() const;

 private:
  void loop();
  void on_bad(std::uint64_t version, const coop::Status& why);

  snapshot::Registry& registry_;
  const ScrubberOptions opts_;
  const ScrubOracle oracle_;

  mutable std::mutex mu_;  ///< stats_ + cv
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;
  ScrubberStats stats_;
  std::uint64_t pass_counter_ = 0;  ///< sampling stream discriminator
};

}  // namespace serve
