// Snapshot subsystem benchmark (DESIGN.md §8): what binary persistence
// buys at startup, and what hot-swap costs under traffic.
//
//   bench_snapshot [--json[=FILE]] [--smoke] [--queries=Q]
//
//   * cold start:  fc::Structure::build + FlatCascade::compile from the
//     source tree (what a server pays without a snapshot)
//   * mmap start:  snapshot::open on the serialized arena — CRC + bounds
//     validation, zero copies (acceptance: >= 10x faster at n = 2^20)
//   * hot swap:    qps of a QueryEngine serving continuously while a
//     publisher thread pushes fresh versions through snapshot::Registry,
//     with every answer checked against the tree oracle
//
// Always runs (no google-benchmark harness); --json additionally writes
// BENCH_snapshot.json for scripts/summarize_bench.py and the bench-smoke
// CI job.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "serve_compare.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using serve_bench::Options;
using serve_bench::seconds_since;

int run(const Options& o, bool emit_json) {
  const std::uint32_t height = o.smoke ? 10 : 16;
  const std::size_t entries = o.smoke ? (std::size_t{1} << 16)
                                      : (std::size_t{1} << 20);
  const std::size_t num_queries =
      o.queries != 0 ? o.queries : (o.smoke ? 2000 : 20000);
  const std::string snap_path = o.out_path + ".arena.snap";

  std::printf("building: height %u, %zu entries...\n", height, entries);
  std::mt19937_64 rng(42);
  const auto tree = cat::make_balanced_binary(height, entries,
                                              cat::CatalogShape::kRandom, rng);

  // Cold start: the full preprocessing pipeline a snapshot-less server
  // pays on every boot.
  const auto t_cold = std::chrono::steady_clock::now();
  const auto s = fc::Structure::build(tree);
  auto flat_e = serve::FlatCascade::compile(s);
  const double cold_sec = seconds_since(t_cold);
  if (!flat_e.ok()) {
    std::fprintf(stderr, "error: %s\n", flat_e.status().to_string().c_str());
    return 1;
  }
  serve::FlatCascade flat = flat_e.take();

  const auto t_write = std::chrono::steady_clock::now();
  if (const auto st = snapshot::write(flat, snap_path); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  const double write_sec = seconds_since(t_write);

  // mmap start: best of a few opens (the first pass may also pay page
  // faults; the steady state is what a restart on a warm box sees).
  double load_sec = 1e30;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto snap = snapshot::open(snap_path);
    const double sec = seconds_since(t0);
    if (!snap.ok()) {
      std::fprintf(stderr, "error: %s\n", snap.status().to_string().c_str());
      return 1;
    }
    load_sec = std::min(load_sec, sec);
  }
  const double load_speedup = cold_sec / load_sec;
  std::printf("cold build %.3f s, snapshot write %.3f s, mmap load %.3f ms "
              "(%.0fx faster than cold build)\n",
              cold_sec, write_sec, load_sec * 1e3, load_speedup);

  // Query set + oracle (tree binary search) for the differential checks.
  const std::vector<serve::PathQuery> queries =
      serve::random_path_batch(tree, rng, num_queries);
  std::vector<std::vector<std::uint32_t>> expected(num_queries);
  for (std::size_t qi = 0; qi < num_queries; ++qi) {
    for (const cat::NodeId v : queries[qi].path) {
      expected[qi].push_back(
          static_cast<std::uint32_t>(tree.catalog(v).find(queries[qi].y)));
    }
  }

  // Round-trip fidelity gate: the mmap-loaded arena must answer
  // bit-identically to the in-memory one it was written from.
  bool equal = true;
  {
    auto snap = snapshot::open(snap_path);
    const std::size_t check = std::min<std::size_t>(500, num_queries);
    for (std::size_t qi = 0; qi < check && equal; ++qi) {
      const auto a = flat.search(queries[qi].path, queries[qi].y);
      const auto b = snap->cascade.search(queries[qi].path, queries[qi].y);
      for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
        if (a.aug_index[i] != b.aug_index[i] ||
            a.proper_index[i] != b.proper_index[i] ||
            b.proper_index[i] != expected[qi][i]) {
          equal = false;
        }
      }
    }
  }

  // Hot swap under traffic: serve continuously while a publisher thread
  // pushes fresh versions (alternating mmap reopens and the in-memory
  // arena's last hurrah via a fresh compile).  Zero mismatches required.
  snapshot::Registry registry;
  registry.publish(snapshot::Snapshot::in_memory(std::move(flat)));
  const double publish_gap_sec = o.smoke ? 0.04 : 0.1;
  const int target_publishes = 12;
  std::atomic<bool> done{false};
  std::size_t publishes = 0;

  // The publisher always completes its full schedule; the serving loop
  // below runs until it does, so every run exercises >= target_publishes
  // hot swaps regardless of how long each open/compile takes.
  std::thread publisher([&] {
    for (int i = 0; i < target_publishes; ++i) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(publish_gap_sec));
      if (i % 2 == 0) {
        auto snap = snapshot::open(snap_path);
        if (snap.ok()) {
          registry.publish(snap.take());
          ++publishes;
        }
      } else {
        auto again = serve::FlatCascade::compile(s);
        if (again.ok()) {
          registry.publish(snapshot::Snapshot::in_memory(again.take()));
          ++publishes;
        }
      }
    }
    done.store(true);
  });

  serve::QueryEngine engine(4);
  std::size_t served = 0, mismatches = 0, batches = 0;
  const auto t_swap = std::chrono::steady_clock::now();
  while (!done.load()) {
    std::vector<serve::PathAnswer> out;
    if (!snapshot::serve_path_queries(registry, engine, queries, out).ok()) {
      ++mismatches;
      continue;
    }
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      for (std::size_t i = 0; i < expected[qi].size(); ++i) {
        mismatches += out[qi].proper_index[i] != expected[qi][i] ? 1 : 0;
      }
    }
    served += num_queries;
    ++batches;
  }
  const double swap_elapsed = seconds_since(t_swap);
  publisher.join();
  const double swap_qps = double(served) / swap_elapsed;

  std::printf("hot swap: %zu publishes across %zu batches, %.0f queries/sec, "
              "%zu mismatches, %zu retired pending\n",
              publishes, batches, swap_qps, mismatches,
              registry.retired_count());
  std::printf("answers equal: %s\n", equal ? "yes" : "NO");

  if (emit_json) {
    std::FILE* f = std::fopen(o.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", o.out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"snapshot\",\n  \"smoke\": %s,\n",
                 o.smoke ? "true" : "false");
    std::fprintf(f, "  \"n\": %zu,\n  \"queries\": %zu,\n", entries,
                 num_queries);
    std::fprintf(f, "  \"cold_build_sec\": %.6f,\n", cold_sec);
    std::fprintf(f, "  \"snapshot_write_sec\": %.6f,\n", write_sec);
    std::fprintf(f, "  \"mmap_load_sec\": %.6f,\n", load_sec);
    std::fprintf(f, "  \"load_speedup\": %.1f,\n", load_speedup);
    std::fprintf(f, "  \"swap_publishes\": %zu,\n", publishes);
    std::fprintf(f, "  \"swap_batches\": %zu,\n", batches);
    std::fprintf(f, "  \"swap_qps\": %.1f,\n", swap_qps);
    std::fprintf(f, "  \"swap_mismatches\": %zu,\n", mismatches);
    std::fprintf(f, "  \"equal_answers\": %s\n}\n", equal ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", o.out_path.c_str());
  }
  std::remove(snap_path.c_str());
  return equal && mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const bool emit_json =
      serve_bench::parse_args(argc, argv, o, "BENCH_snapshot.json");
  return run(o, emit_json);
}
