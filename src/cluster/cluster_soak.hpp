#pragma once

// Multi-process cluster chaos soak (DESIGN.md §15): partition a seeded
// tree into shard snapshots, launch one real coopserve process per
// shard, stand up the scatter-gather router in front of them plus a
// snapshot-shipping follower replica of shard 0, aim a seeded client
// fleet at the router, and inject the cluster-level faults the scale-out
// plane claims to survive:
//
//   SIGKILL of a shard process mid-traffic  (batches shed, typed)
//   same-port resurrection of the corpse    (breaker closes, serving
//                                            resumes with zero wrong
//                                            answers)
//   a leader SWAP publishing a new generation (the follower catches up
//                                            over FETCH_SNAPSHOT while
//                                            serving its stale copy)
//
// and assert the contract: every answered batch matches the unsharded
// tree oracle bit for bit, every batch the dead shard cost was shed with
// a *typed* error (never a hang, never a wrong answer), and the follower
// observed at least one catch-up.  Shared by tests/cluster (short) and
// coopload --op cluster-soak (the CI job + nightly soak).

#include <chrono>
#include <cstdint>
#include <string>

#include "robust/soak.hpp"
#include "robust/status.hpp"

namespace cluster {

struct ClusterSoakOptions {
  std::uint64_t seed = 1;
  std::chrono::milliseconds duration{3000};
  std::size_t clients = 3;
  std::uint32_t num_shards = 3;
  std::uint32_t tree_height = 6;
  std::size_t tree_entries = 4000;
  std::size_t batch_queries = 32;
  /// Scratch directory for shard snapshots, the routing map, follower
  /// generations, and per-process logs (created if missing; kept on
  /// failure so CI can archive it).
  std::string dir = "cluster_soak";
  /// Path to the coopserve binary to launch shard processes from.
  std::string coopserve_path;
};

struct ClusterSoakOutcome : robust::SoakResult {
  // Client-side view (through the router).
  std::uint64_t batches = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong_answers = 0;   ///< batches the oracle refuted
  std::uint64_t typed_sheds = 0;     ///< typed UNAVAILABLE/DEADLINE errors
  std::uint64_t untyped_failures = 0;  ///< anything else (must be 0)
  std::uint64_t answered_after_revive = 0;
  // Fault-injection ledger.
  std::uint64_t kills = 0;
  std::uint64_t resurrections = 0;
  std::uint64_t swaps = 0;
  std::uint64_t follower_catchups = 0;  ///< generations fetched+installed
  std::uint64_t follower_version = 0;   ///< latest generation installed
  // Router-side view.
  std::uint64_t hedged_retries = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t router_sheds = 0;
  bool final_sweep_ok = false;  ///< post-revive full-coverage batch served

  void fields(robust::FieldList& v) const {
    v.count("batches", batches);
    v.goal("answered", answered);
    v.wrong("wrong_answers", wrong_answers);
    v.goal("typed_sheds", typed_sheds);
    v.failure("untyped_failures", untyped_failures);
    v.goal("answered_after_revive", answered_after_revive);
    v.goal("kills", kills);
    v.goal("resurrections", resurrections);
    v.goal("swaps", swaps);
    v.goal("follower_catchups", follower_catchups, 2);
    v.count("follower_version", follower_version);
    v.count("hedged_retries", hedged_retries);
    v.count("breaker_trips", breaker_trips);
    v.count("router_sheds", router_sheds);
    v.goal("final_sweep_ok", final_sweep_ok);
  }
};

/// Run the soak.  Setup errors (fixture build, partitioning, process
/// launch, router start) are the returned Status; a completed soak
/// always returns a judged outcome.  Runs for `duration`, giving each
/// fault step up to ~6x that to be observed.
[[nodiscard]] coop::Expected<ClusterSoakOutcome> run_cluster_soak(
    const ClusterSoakOptions& opts);

}  // namespace cluster
