#pragma once

// Seeded mutate soak (DESIGN.md §13): concurrent write storm + merged
// reads + compaction churn + kill-mid-compact against one
// DynamicCatalog, with read-your-writes verification after every ack
// and a full differential sweep at the end.  The shape mirrors
// net::run_wire_soak: a deterministic scenario driver that returns a
// machine-checkable outcome, run short in CI (sanitizer jobs) and long
// by hand.
//
// Determinism note: thread interleaving is real (that is the point —
// ASan/TSan run this), but every input stream is seeded, and writers own
// disjoint key slices above the base key range, so each writer's
// dyn::SliceJournal is an exact oracle for its slice regardless of
// interleaving.

#include <chrono>
#include <cstdint>
#include <string>

#include "robust/soak.hpp"

namespace dyn {

struct MutateSoakOptions {
  std::uint64_t seed = 1;
  std::chrono::milliseconds duration{1500};
  std::size_t writers = 2;
  std::size_t readers = 2;
  std::uint32_t tree_height = 6;
  std::size_t tree_entries = 1 << 10;
  std::size_t batch = 64;            ///< mutations per apply
  std::size_t compact_trigger = 256; ///< compactor pending threshold
  /// Periodically stop() the compactor mid-flight and restart it — the
  /// kill-mid-compact leg.  An in-flight rebuild must either land or
  /// vanish without ever tearing the serving state.
  bool kill_mid_compact = true;
};

struct MutateSoakOutcome : robust::SoakResult {
  std::uint64_t batches_applied = 0;
  std::uint64_t mutations_applied = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t wrong_answers = 0;   ///< read-your-writes / final-sweep misses
  std::uint64_t compactions = 0;
  std::uint64_t compactor_kills = 0;
  std::uint64_t final_checked = 0;   ///< (node,key) pairs swept at the end

  void fields(robust::FieldList& v) const {
    v.count("batches_applied", batches_applied);
    v.goal("mutations_applied", mutations_applied);
    v.count("reads", reads);
    v.failure("read_errors", read_errors);
    v.wrong("wrong_answers", wrong_answers);
    v.goal("compactions", compactions);
    v.count("compactor_kills", compactor_kills);
    v.count("final_checked", final_checked);
  }
};

[[nodiscard]] MutateSoakOutcome run_mutate_soak(const MutateSoakOptions& opts);

}  // namespace dyn
