#include "serve/soak.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tree.hpp"
#include "robust/chaos.hpp"
#include "robust/soak.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace serve {

using coop::Status;

coop::Expected<SoakOutcome> run_chaos_soak(const SoakOptions& opts) {
  using Clock = std::chrono::steady_clock;

  // ---- Fixture: source tree -> checked build -> flat arena -> disk. ----
  std::mt19937_64 fixture_rng(opts.seed);
  const cat::Tree tree =
      cat::make_balanced_binary(opts.tree_height, opts.tree_entries,
                                cat::CatalogShape::kRandom, fixture_rng);
  auto flat = FlatCascade::compile_tree(tree);
  if (!flat.ok()) {
    return flat.status();
  }
  if (Status st = snapshot::write(*flat, opts.snap_path); !st.ok()) {
    return st;
  }

  // Every publish is a fresh copy-on-write mapping of the pristine file:
  // bit-flips rot one served generation, never the snapshot on disk.
  snapshot::Registry registry;
  const auto publish_clean = [&]() -> Status {
    auto snap =
        snapshot::open(opts.snap_path, snapshot::OpenMode::kWritableCopy);
    if (!snap.ok()) {
      return snap.status();
    }
    registry.publish(snap.take());
    return coop::OkStatus();
  };
  if (Status st = publish_clean(); !st.ok()) {
    return st;
  }

  // Flip target, computed ONCE while the mapping is pristine
  // (section_extent re-runs the CRC ladder): the low byte of the last
  // entry in the kEntries section.  That entry is the final catalog's +inf
  // terminal, whose key offset saturates every query above the node's
  // keys, so the flip cannot change any answer for the generated key
  // range — but it is fatal to the section CRC.  Detection must come from
  // the scrubber, not from a wrong answer.
  std::uint64_t flip_off = 0;
  {
    const snapshot::Registry::Pin pin = registry.pin();
    const auto ext = snapshot::section_extent(pin.snapshot(),
                                              snapshot::SectionId::kEntries);
    if (!ext.ok()) {
      return ext.status();
    }
    if (ext->second < sizeof(FlatEntry)) {
      return Status::internal("kEntries section too small to host a bit flip");
    }
    flip_off = ext->first + ext->second - sizeof(FlatEntry);
  }

  // ---- Serving stack under test. ----
  QueryEngine engine(opts.engine_threads);
  FrontendOptions fopts;
  fopts.max_inflight = 2;  // < clients: admission sheds are guaranteed
  fopts.max_retries = 1;
  fopts.backoff_base = std::chrono::microseconds(200);
  fopts.backoff_cap = std::chrono::milliseconds(2);
  fopts.jitter_seed = opts.seed;
  fopts.breaker_threshold = 4;  // < squeeze burst length: trips guaranteed
  fopts.breaker_open_for = std::chrono::milliseconds(50);
  fopts.open_policy = OpenPolicy::kSequential;
  Frontend frontend(registry, engine, fopts);

  ScrubberOptions sopts;
  sopts.interval = std::chrono::milliseconds(10);
  sopts.samples = 16;
  sopts.seed = opts.seed;
  Scrubber scrubber(registry, sopts,
                    [&tree](std::uint32_t node, cat::Key y) {
                      return tree.catalog(cat::NodeId(node)).find(y);
                    });
  // Generation 1 must scrub clean before any chaos: it is the root of the
  // last-known-good chain every rollback hangs off.
  if (Status st = scrubber.run_pass(); !st.ok()) {
    return st;
  }
  scrubber.start();

  const robust::ChaosPlan plan(opts.seed);
  std::atomic<std::uint64_t> chaos_seq{0};
  std::atomic<bool> stop{false};

  // ---- Clients: build random root-leaf batches, serve them through the
  // frontend with the plan's faults, and differentially check every
  // admitted answer against the source tree. ----
  SoakOutcome out;
  robust::FirstFailure fail(out.first_failure);
  const std::size_t n_clients = std::max<std::size_t>(1, opts.clients);
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t ci = 0; ci < n_clients; ++ci) {
    clients.emplace_back([&, ci] {
      std::mt19937_64 rng(opts.seed ^ (0xC11E57ull * (ci + 1)));
      PathAnswerSet answers;
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<PathQuery> batch =
            random_path_batch(tree, rng, opts.batch_queries);
        const std::uint64_t seq =
            chaos_seq.fetch_add(1, std::memory_order_relaxed);
        const robust::BatchFault fault = plan.fault_for_batch(seq);

        BatchOptions bopts;
        const BatchOptions* override_opts = nullptr;
        if (fault.deadline_squeeze) {
          bopts.deadline = std::chrono::nanoseconds(1);
          bopts.shard_size = 1;
          override_opts = &bopts;
        }
        const std::size_t groups =
            (batch.size() + kPathGroup - 1) / kPathGroup;
        std::atomic<bool> thrown{false};
        ChaosHooks hooks;
        const ChaosHooks* chaos = nullptr;
        if (fault.worker_throw) {
          const std::size_t victim = fault.throw_item % groups;
          hooks.on_item = [victim, &thrown](std::uint64_t /*seq*/,
                                            std::size_t item) {
            if (item == victim && !thrown.exchange(true)) {
              throw std::runtime_error("chaos: injected worker fault");
            }
          };
          chaos = &hooks;
        }

        BatchReport report;
        const Status st =
            frontend.serve_paths(path_refs(batch), answers, &report, nullptr,
                                 override_opts, chaos);
        robust::bump(out.batches);
        if (st.ok()) {
          robust::bump(out.admitted);
          if (report.degraded) {
            robust::bump(out.degraded);
          }
          robust::bump(out.wrong_answers,
                       count_path_mismatches(tree, batch, answers));
        } else if (st.code() == coop::StatusCode::kResourceExhausted) {
          robust::bump(out.shed);
        } else if (st.code() == coop::StatusCode::kUnavailable) {
          robust::bump(out.shed_breaker);
        } else {
          fail(out.failed, st.to_string());
        }
      }
    });
  }

  // ---- Conductor: publish storms + payload rot, one cycle at a time.
  // Each cycle waits for the scrubber to bless the fresh current
  // generation before rotting it, so every flip has a rollback target and
  // every detection is attributable to that cycle's flip. ----
  std::thread conductor([&] {
    std::uint64_t cycle = 0;
    // Each wait gives up after a second, or at once when the soak stops.
    const auto wait_until = [&](const std::function<bool()>& pred) {
      return robust::wait_until(
                 [&] { return stop.load(std::memory_order_acquire) || pred(); },
                 Clock::now() + std::chrono::seconds(1),
                 std::chrono::milliseconds(2)) &&
             pred();
    };
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint32_t burst = plan.publish_burst_size(cycle);
      for (std::uint32_t b = 0; b < burst; ++b) {
        if (publish_clean().ok()) {
          robust::bump(out.publishes);
        }
      }
      // Wait for a clean scrub of the new current generation.
      if (!wait_until([&] {
            return registry.last_known_good() == registry.current_version();
          })) {
        ++cycle;
        continue;
      }
      // Rot the served copy.  The pin keeps the mapping alive; the write
      // goes to the COW copy, so re-publishes stay clean.
      const std::uint64_t quarantines_before = scrubber.stats().quarantines;
      {
        const snapshot::Registry::Pin pin = registry.pin();
        if (!pin.has_snapshot() ||
            pin.snapshot().mapping.mutable_data() == nullptr) {
          ++cycle;
          continue;
        }
        pin.snapshot().mapping.mutable_data()[flip_off] ^= 0x01;
        robust::bump(out.bitflips);
      }
      // Wait for detection + rollback before the next storm.
      (void)wait_until([&] {
        return scrubber.stats().quarantines > quarantines_before;
      });
      if (opts.verbose) {
        const ScrubberStats ss = scrubber.stats();
        std::fprintf(stderr,
                     "soak: cycle %llu published %u, flipped gen %llu, "
                     "rolled back to %llu (quarantines=%llu)\n",
                     static_cast<unsigned long long>(cycle), burst,
                     static_cast<unsigned long long>(ss.last_bad_version),
                     static_cast<unsigned long long>(ss.last_rollback_to),
                     static_cast<unsigned long long>(ss.quarantines));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++cycle;
    }
  });

  // ---- Run until the duration elapsed AND every goal was observed. ----
  robust::run_until_goals(opts.duration, [&] {
    out.frontend = frontend.stats();
    out.scrubber = scrubber.stats();
    return robust::goals_reached(out);
  });

  stop.store(true, std::memory_order_release);
  for (auto& c : clients) {
    c.join();
  }
  conductor.join();
  scrubber.stop();

  out.frontend = frontend.stats();
  out.scrubber = scrubber.stats();
  robust::judge(out,
                "zero wrong answers, zero unexpected failures; observed "
                ">=1 shed, breaker trip, quarantine, rollback");
  std::remove(opts.snap_path.c_str());
  return out;
}

}  // namespace serve
