#include "dyn/mutate_soak.hpp"

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "dyn/compactor.hpp"
#include "dyn/overlay.hpp"
#include "dyn/slice_journal.hpp"
#include "fc/build.hpp"
#include "robust/soak.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace dyn {

namespace {

/// Base keys stay below this, so no writer key (SliceJournal slices start
/// at 2*10^9) ever collides with a base key or another writer's.
constexpr Key kBaseKeyRange = 1'000'000'000;

}  // namespace

MutateSoakOutcome run_mutate_soak(const MutateSoakOptions& opts) {
  MutateSoakOutcome out;

  std::mt19937_64 build_rng(opts.seed);
  const cat::Tree tree =
      cat::make_balanced_binary(opts.tree_height, opts.tree_entries,
                                cat::CatalogShape::kRandom, build_rng,
                                kBaseKeyRange);
  const fc::Structure structure = fc::Structure::build(tree);
  auto compiled = serve::FlatCascade::compile(structure);
  if (!compiled.ok()) {
    out.verdict = "FAIL: build failed: " + compiled.status().to_string();
    return out;
  }
  snapshot::Registry registry;
  registry.mark_good(
      registry.publish(snapshot::Snapshot::in_memory(compiled.take())));

  DynamicCatalog::Options copts;
  copts.merge_threshold = 4;
  auto attached = DynamicCatalog::attach(registry, copts);
  if (!attached.ok()) {
    out.verdict = "FAIL: attach failed: " + attached.status().to_string();
    return out;
  }
  DynamicCatalog& cat = **attached;
  const std::size_t num_nodes = tree.num_nodes();

  Compactor::Options kopts;
  kopts.trigger_pending = opts.compact_trigger;
  kopts.interval = std::chrono::milliseconds(20);
  Compactor compactor(cat, kopts);
  compactor.start();

  std::atomic<bool> stop{false};
  robust::FirstFailure fail(out.first_failure);
  const auto judge_served = [&](const SliceJournal& journal,
                                std::uint32_t node, Key key, Key served) {
    if (journal.check(node, key, served) != JournalCheck::kOk) {
      robust::bump(out.wrong_answers);
    }
  };

  // Writers: seeded streams over disjoint key slices; after every ack,
  // spot-check read-your-writes through a freshly captured state.
  std::vector<SliceJournal> journals;
  for (std::size_t w = 0; w < opts.writers; ++w) {
    journals.emplace_back(w);
  }
  std::vector<std::thread> writers;
  writers.reserve(opts.writers);
  for (std::size_t w = 0; w < opts.writers; ++w) {
    writers.emplace_back([&, w] {
      std::mt19937_64 rng(opts.seed * 7919 + w);
      SliceJournal& journal = journals[w];
      const auto any_node = [&] {
        return static_cast<std::uint32_t>(rng() % num_nodes);
      };
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<Mutation> batch =
            journal.random_batch(rng, opts.batch, 3, any_node);
        auto ack = cat.apply(batch);
        if (!ack.ok()) {
          fail(out.read_errors, "apply: " + ack.status().to_string());
          continue;
        }
        robust::bump(out.batches_applied);
        robust::bump(out.mutations_applied, batch.size());
        journal.ack(SliceJournal::collapse(batch));
        // Read-your-writes: the state captured after the ack must
        // reflect this batch's *final* op per (node, key).
        const StatePtr s = cat.state();
        const Mutation& probe = batch[rng() % batch.size()];
        judge_served(journal, probe.node, probe.key,
                     s->live_successor(probe.node, probe.key));
      }
    });
  }

  // Readers: random root-to-leaf merged path queries against captured
  // states while writes and compactions churn underneath.  Sanity: every
  // answer key is >= y (the successor contract); memory/race bugs are
  // the sanitizers' catch.
  std::vector<std::thread> readers;
  readers.reserve(opts.readers);
  for (std::size_t r = 0; r < opts.readers; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(opts.seed * 104729 + r);
      PathKeySet ans;
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<serve::PathQuery> q =
            serve::random_path_batch(tree, rng, 1);
        const StatePtr s = cat.state();
        search_paths_dyn(*s, serve::path_refs(q), ans);
        robust::bump(out.reads);
        for (const Key k : ans.keys(0)) {
          if (k < q[0].y) {
            robust::bump(out.wrong_answers);
          }
        }
      }
    });
  }

  // Chaos: kill the compactor mid-flight and resurrect it.
  std::thread killer;
  if (opts.kill_mid_compact) {
    killer = std::thread([&] {
      std::mt19937_64 rng(opts.seed * 15485863);
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(30 + rng() % 70));
        compactor.compact_now();
        std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 10));
        compactor.stop();
        robust::bump(out.compactor_kills);
        compactor.start();
      }
    });
  }

  robust::run_until_goals(opts.duration, [&] {
    out.compactions = compactor.stats().compactions;
    return robust::goals_reached(out);
  });
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  if (killer.joinable()) {
    killer.join();
  }
  compactor.stop();

  // Quiesce: one final compaction, then sweep every journaled (node,
  // key) — the acknowledged history must be exactly what the compacted
  // base + residual overlay serves.
  if (auto final_compact = compactor.compact_once(); !final_compact.ok()) {
    fail(out.read_errors,
         "final compaction: " + final_compact.status().to_string());
  }
  const StatePtr fin = cat.state();
  for (const SliceJournal& journal : journals) {
    for (const auto& [nk, live] : journal.entries()) {
      ++out.final_checked;
      judge_served(journal, nk.first, nk.second,
                   fin->live_successor(nk.first, nk.second));
    }
  }
  out.compactions = compactor.stats().compactions;
  robust::judge(out, "acknowledged writes read back through compaction "
                     "churn and compactor kills");
  return out;
}

}  // namespace dyn
