#pragma once

// Chaos soak driver (DESIGN.md §9): drive the full serving stack —
// Frontend (admission / retry / breaker) over a Registry scrubbed by a
// background Scrubber — under a seeded robust::ChaosPlan for a fixed
// duration, and report whether the layer protected itself:
//
//   zero crashes, zero wrong answers among admitted batches, at least
//   one admission shed (RESOURCE_EXHAUSTED), one breaker trip, and one
//   scrubber quarantine + registry rollback.
//
// The driver injects every fault class the plan schedules: worker
// throws and deadline squeezes per batch (client side), publish storms
// and payload bit-flips (conductor side).  Flips go into a *writable
// copy-on-write* snapshot mapping, so the on-disk file stays pristine
// and every re-publish starts clean.  The flipped byte is the low byte
// of the final +inf catalog terminal: provably answer-preserving for
// the query distribution (keys are compared, never dereferenced), yet
// CRC-fatal — exactly the silent-rot case the scrubber exists for.
//
// Shared by tests/integration/test_chaos_soak.cpp and the CLI's
// `serve --soak`, so the ≥10 s local soak and the short CI soak run the
// same code.

#include <chrono>
#include <cstdint>
#include <string>

#include "robust/soak.hpp"
#include "robust/status.hpp"
#include "serve/frontend.hpp"
#include "serve/scrubber.hpp"

namespace serve {

struct SoakOptions {
  std::uint64_t seed = 1;
  std::chrono::milliseconds duration{2000};
  std::size_t engine_threads = 4;
  std::size_t clients = 3;  ///< one more than the admission budget below
  std::uint32_t tree_height = 7;
  std::size_t tree_entries = 8000;
  std::size_t batch_queries = 256;
  /// Scratch snapshot file (overwritten, removed on success).
  std::string snap_path = "chaos_soak.snap";
  bool verbose = false;  ///< print conductor events + final counters
};

struct SoakOutcome : robust::SoakResult {
  // Client-side view.
  std::uint64_t batches = 0;       ///< submitted
  std::uint64_t admitted = 0;      ///< served OK
  std::uint64_t shed = 0;          ///< kResourceExhausted
  std::uint64_t shed_breaker = 0;  ///< kUnavailable
  std::uint64_t failed = 0;        ///< any other error (must stay 0)
  std::uint64_t degraded = 0;      ///< admitted batches that degraded
  std::uint64_t wrong_answers = 0; ///< differential mismatches (must be 0)
  // Conductor-side view.
  std::uint64_t publishes = 0;
  std::uint64_t bitflips = 0;
  // Subsystem stats, refreshed while the goals are polled.
  FrontendStats frontend;
  ScrubberStats scrubber;

  /// Goals: >=1 shed, breaker trip, scrubber quarantine, rollback and
  /// bit flip.
  void fields(robust::FieldList& v) const {
    v.count("batches", batches);
    v.count("admitted", admitted);
    v.count("shed", shed);
    v.count("shed_breaker", shed_breaker);
    v.failure("failed", failed);
    v.count("degraded", degraded);
    v.wrong("wrong_answers", wrong_answers);
    v.goal("frontend_shed", frontend.shed);
    v.goal("breaker_trips", frontend.breaker_trips);
    v.count("breaker_probes", frontend.breaker_probes);
    v.count("scrub_passes", scrubber.passes);
    v.goal("quarantines", scrubber.quarantines);
    v.goal("rollbacks", scrubber.rollbacks);
    v.count("publishes", publishes);
    v.goal("bitflips", bitflips);
  }
};

/// Run the soak.  Setup errors (tree build, snapshot write/open) are the
/// returned Status; a completed soak always returns a judged outcome.
/// Runs for `duration`, extending (up to ~6x) until the goals are
/// observed.
[[nodiscard]] coop::Expected<SoakOutcome> run_chaos_soak(
    const SoakOptions& opts);

}  // namespace serve
