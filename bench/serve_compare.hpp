#pragma once

// Flat-arena serving layer vs PRAM simulator: wall-clock throughput
// comparison with machine-readable JSON output (DESIGN.md §7).
//
// The google-benchmark experiments measure *simulated step counts* — the
// quantity the paper's theorems bound.  This mode measures the orthogonal
// production question: real queries per second.  Invoked from the bench
// binaries as
//
//   bench_retrieval --json[=FILE] [--smoke] [--queries=Q]
//   bench_pointloc  --json[=FILE] [--smoke] [--queries=Q]
//
// which bypasses google-benchmark entirely, runs the comparison, prints a
// summary, and writes the JSON (default BENCH_serve.json /
// BENCH_pointloc_serve.json; consumed by scripts/summarize_bench.py and
// the bench-smoke CI job).  --smoke shrinks the instance so CI finishes
// in seconds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <thread>

#include "catalog/tree.hpp"
#include "core/explicit_search.hpp"
#include "fc/search.hpp"
#include "geom/generators.hpp"
#include "pointloc/coop_pointloc.hpp"
#include "serve/flat_pointloc.hpp"
#include "serve/query_engine.hpp"

namespace serve_bench {

struct Options {
  std::string out_path;  ///< JSON destination
  bool smoke = false;    ///< CI-sized instance
  std::size_t queries = 0;  ///< 0 = mode default
};

/// True iff --json was passed; fills `o` from the other flags.
inline bool parse_args(int argc, char** argv, Options& o,
                       const char* default_out) {
  bool json = false;
  o.out_path = default_out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--json") == 0) {
      json = true;
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      json = true;
      o.out_path = a + 7;
    } else if (std::strcmp(a, "--smoke") == 0) {
      o.smoke = true;
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      o.queries = static_cast<std::size_t>(std::strtoull(a + 10, nullptr, 10));
    }
  }
  return json;
}

struct Row {
  std::string mode;
  std::size_t threads = 1;
  double qps = 0;
  double p99_ns = 0;  ///< p99 per-query latency at chunk granularity
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measured {
  double qps = 0;
  double p99_ns = 0;
};

/// Throughput of `run(begin, count)` over a query set of size `total`.
/// One untimed warm-up pass first (cold caches and first-touch page
/// faults are not the steady state the regression gate tracks), then
/// three independent timed epochs of `min_sec / 3` each; the reported
/// qps is the *fastest* epoch.  A single long-window average folds
/// scheduler preemption on a busy host into every number, while the
/// best epoch approaches the machine's true throughput — the same
/// min-of-k discipline the baseline refresh applies across whole runs.
/// The tail estimate is the 99th percentile of per-chunk wall time
/// (over all epochs) divided by chunk size.
template <typename RunChunk>
Measured measure(std::size_t total, std::size_t chunk, double min_sec,
                 RunChunk&& run) {
  for (std::size_t at = 0; at < total; at += chunk) {
    run(at, std::min(chunk, total - at));
  }
  constexpr int kEpochs = 3;
  std::vector<double> per_query_ns;
  double best_qps = 0;
  std::size_t at = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t done = 0;
    double elapsed = 0;
    do {
      const std::size_t c = std::min(chunk, total - at);
      const auto c0 = std::chrono::steady_clock::now();
      run(at, c);
      per_query_ns.push_back(
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - c0)
              .count() /
          double(c));
      done += c;
      at = (at + c) % total;
      elapsed = seconds_since(t0);
    } while (elapsed < min_sec / kEpochs);
    best_qps = std::max(best_qps, double(done) / elapsed);
  }
  std::sort(per_query_ns.begin(), per_query_ns.end());
  const std::size_t p99_idx =
      (per_query_ns.size() - 1) * 99 / 100;
  return Measured{best_qps, per_query_ns[p99_idx]};
}

inline Row make_row(std::string mode, std::size_t threads, Measured m) {
  return Row{std::move(mode), threads, m.qps, m.p99_ns};
}

inline void write_json_to(std::FILE* f, const Options& o,
                          const char* bench_name, std::size_t n,
                          std::size_t num_queries,
                          const std::vector<Row>& rows, double speedup,
                          bool equal_answers) {
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n", bench_name,
               o.smoke ? "true" : "false");
  std::fprintf(f, "  \"n\": %zu,\n  \"queries\": %zu,\n", n, num_queries);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"qps\": %.1f, "
                 "\"p99_ns\": %.1f}%s\n",
                 rows[i].mode.c_str(), rows[i].threads, rows[i].qps,
                 rows[i].p99_ns, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_flat_vs_simulator\": %.2f,\n", speedup);
  std::fprintf(f, "  \"equal_answers\": %s\n}\n",
               equal_answers ? "true" : "false");
}

/// The JSON document goes to stdout (the machine-readable channel — every
/// diagnostic in this header goes to stderr) AND to o.out_path for the CI
/// artifact flow.
inline void write_json(const Options& o, const char* bench_name,
                       std::size_t n, std::size_t num_queries,
                       const std::vector<Row>& rows, double speedup,
                       bool equal_answers) {
  write_json_to(stdout, o, bench_name, n, num_queries, rows, speedup,
                equal_answers);
  std::FILE* f = std::fopen(o.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", o.out_path.c_str());
    return;
  }
  write_json_to(f, o, bench_name, n, num_queries, rows, speedup,
                equal_answers);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", o.out_path.c_str());
}

inline void print_rows(const std::vector<Row>& rows) {
  std::fprintf(stderr, "%-16s %8s %14s %12s\n", "mode", "threads",
               "queries/sec", "p99(ns)");
  for (const auto& r : rows) {
    std::fprintf(stderr, "%-16s %8zu %14.1f %12.1f\n", r.mode.c_str(),
                 r.threads, r.qps, r.p99_ns);
  }
}

/// bench_retrieval --json: explicit-path search throughput, simulator vs
/// flat arena.  n = 2^20 catalog entries (acceptance size) unless --smoke.
inline int run_paths_compare(const Options& o) {
  const std::uint32_t height = o.smoke ? 10 : 16;
  const std::size_t entries = o.smoke ? (std::size_t{1} << 16)
                                      : (std::size_t{1} << 20);
  const std::size_t num_queries =
      o.queries != 0 ? o.queries : (o.smoke ? 2000 : 20000);
  const std::size_t sim_p = 16;

  std::fprintf(stderr, "building: height %u, %zu entries...\n", height, entries);
  std::mt19937_64 rng(42);
  const auto tree = cat::make_balanced_binary(height, entries,
                                              cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(tree);
  const auto cs = coop::CoopStructure::build(s);
  auto flat_e = serve::FlatCascade::compile(s);
  if (!flat_e.ok()) {
    std::fprintf(stderr, "error: %s\n", flat_e.status().to_string().c_str());
    return 1;
  }
  const serve::FlatCascade flat = flat_e.take();
  std::fprintf(stderr, "arena: %.1f MiB for %zu augmented entries\n",
              double(flat.arena_bytes()) / (1024.0 * 1024.0),
              flat.total_entries());

  const std::vector<serve::PathQuery> queries =
      serve::random_path_batch(tree, rng, num_queries);

  // Differential gate first: every serving-mode answer is defined by the
  // sequential oracle — including the grouped kernel, so a wrong answer
  // can never post a throughput number.
  bool equal = true;
  const std::size_t check = std::min<std::size_t>(500, num_queries);
  // The window kernel over queries [at, at + c), into `out` (reset to
  // them).
  const auto grouped_into = [&](serve::PathAnswerSet& out, std::size_t at,
                                std::size_t c) {
    const auto part = std::span<const serve::PathQuery>(queries).subspan(at, c);
    out.reset(part);
    serve::serve_path_units(flat, part, 0, serve::path_groups(c), out);
  };
  serve::PathAnswerSet grouped;
  grouped_into(grouped, 0, check);
  serve::PathAnswerSet flat_set;
  {
    serve::QueryEngine eng1(1);
    (void)serve::serve_path_queries(
        flat, eng1, std::span<const serve::PathQuery>(queries).first(check),
        flat_set);
  }
  for (std::size_t qi = 0; qi < check && equal; ++qi) {
    const auto oracle = fc::search_explicit(s, queries[qi].path, queries[qi].y);
    const auto got = flat.search(queries[qi].path, queries[qi].y);
    pram::Machine m(sim_p);
    const auto sim = coop::coop_search_explicit(cs, m, queries[qi].path,
                                                queries[qi].y);
    for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
      if (got.proper_index[i] != oracle.proper_index[i] ||
          sim.proper_index[i] != oracle.proper_index[i] ||
          grouped.proper(qi)[i] != oracle.proper_index[i] ||
          grouped.aug(qi)[i] != oracle.aug_index[i] ||
          flat_set.proper(qi)[i] != oracle.proper_index[i] ||
          flat_set.aug(qi)[i] != oracle.aug_index[i]) {
        equal = false;
      }
    }
  }

  std::vector<Row> rows;
  const double min_sec = o.smoke ? 0.2 : 0.5;

  rows.push_back(make_row("simulator", 1,
                  measure(num_queries, 50, min_sec,
                              [&](std::size_t at, std::size_t c) {
                                for (std::size_t qi = at; qi < at + c; ++qi) {
                                  pram::Machine m(sim_p);
                                  (void)coop::coop_search_explicit(
                                      cs, m, queries[qi].path, queries[qi].y);
                                }
                              })));
  rows.push_back(make_row("fc_sequential", 1,
                  measure(num_queries, 200, min_sec,
                              [&](std::size_t at, std::size_t c) {
                                for (std::size_t qi = at; qi < at + c; ++qi) {
                                  (void)fc::search_explicit(
                                      s, queries[qi].path, queries[qi].y);
                                }
                              })));
  {
    // One query at a time: reused output buffers, no allocation — the
    // serving latency per query (each hop's cache miss serializes).
    std::vector<std::uint32_t> aug(height + 2), prop(height + 2);
    rows.push_back(make_row("flat_single", 1,
                    measure(num_queries, 1000, min_sec,
                                [&](std::size_t at, std::size_t c) {
                                  for (std::size_t qi = at; qi < at + c;
                                       ++qi) {
                                    flat.search_path(queries[qi].path,
                                                     queries[qi].y, aug.data(),
                                                     prop.data());
                                  }
                                })));
  }
  {
    // The engine's single-thread kernel: lockstep groups overlap the
    // per-hop misses across 16 queries — the flat engine's throughput.
    serve::PathAnswerSet chunk_out;
    rows.push_back(
        make_row("flat", 1,
         measure(num_queries, 1000, min_sec,
                     [&](std::size_t at, std::size_t c) {
                       grouped_into(chunk_out, at, c);
                     })));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    serve::QueryEngine engine(threads);
    serve::PathAnswerSet out;
    rows.push_back(
        make_row("flat_batch", threads,
         measure(num_queries, num_queries, min_sec,
                     [&](std::size_t, std::size_t) {
                       (void)serve::serve_path_queries(flat, engine,
                                                       queries, out);
                     })));
  }

  double flat_qps = 0, sim_qps = 0;
  for (const auto& r : rows) {
    if (r.mode == "flat") flat_qps = r.qps;
    if (r.mode == "simulator") sim_qps = r.qps;
  }
  const double speedup = flat_qps / sim_qps;
  print_rows(rows);
  std::fprintf(stderr,
              "flat vs simulator (single thread): %.1fx; answers equal: %s\n",
              speedup, equal ? "yes" : "NO");
  write_json(o, "serve_paths", entries, num_queries, rows, speedup, equal);
  return equal ? 0 : 1;
}

/// bench_pointloc --json: point-location throughput, simulator vs flat.
inline int run_pointloc_compare(const Options& o) {
  const std::size_t regions = o.smoke ? 256 : 4096;
  const std::size_t bands = o.smoke ? 32 : 64;
  const std::size_t num_queries =
      o.queries != 0 ? o.queries : (o.smoke ? 2000 : 20000);
  const std::size_t sim_p = 16;

  std::fprintf(stderr, "building: %zu regions x %zu bands...\n", regions, bands);
  std::mt19937_64 rng(7);
  const auto sub = geom::make_random_monotone(regions, bands, rng);
  const pointloc::SeparatorTree st(sub);
  auto loc_e = serve::FlatPointLocator::compile(st);
  if (!loc_e.ok()) {
    std::fprintf(stderr, "error: %s\n", loc_e.status().to_string().c_str());
    return 1;
  }
  const serve::FlatPointLocator loc = loc_e.take();
  std::fprintf(stderr, "subdivision: %zu edges; arena %.1f MiB\n", sub.edges.size(),
              double(loc.arena_bytes()) / (1024.0 * 1024.0));

  std::vector<geom::Point> queries(num_queries);
  for (auto& q : queries) {
    q = geom::random_query_point(sub, rng);
  }

  bool equal = true;
  const std::size_t check = std::min<std::size_t>(200, num_queries);
  for (std::size_t qi = 0; qi < check && equal; ++qi) {
    const std::size_t expect = st.locate(queries[qi]);
    pram::Machine m(sim_p);
    if (loc.locate(queries[qi]) != expect ||
        pointloc::coop_locate(st, m, queries[qi]) != expect ||
        sub.locate_brute(queries[qi]) != expect) {
      equal = false;
    }
  }

  std::vector<Row> rows;
  const double min_sec = o.smoke ? 0.2 : 0.5;
  rows.push_back(make_row("simulator", 1,
                  measure(num_queries, 50, min_sec,
                              [&](std::size_t at, std::size_t c) {
                                for (std::size_t qi = at; qi < at + c; ++qi) {
                                  pram::Machine m(sim_p);
                                  (void)pointloc::coop_locate(st, m,
                                                              queries[qi]);
                                }
                              })));
  rows.push_back(make_row("septree_seq", 1,
                  measure(num_queries, 200, min_sec,
                              [&](std::size_t at, std::size_t c) {
                                for (std::size_t qi = at; qi < at + c; ++qi) {
                                  (void)st.locate(queries[qi]);
                                }
                              })));
  rows.push_back(make_row("flat", 1,
                  measure(num_queries, 1000, min_sec,
                              [&](std::size_t at, std::size_t c) {
                                for (std::size_t qi = at; qi < at + c; ++qi) {
                                  (void)loc.locate(queries[qi]);
                                }
                              })));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    serve::QueryEngine engine(threads);
    std::vector<std::size_t> out;
    rows.push_back(
        make_row("flat_batch", threads,
         measure(num_queries, num_queries, min_sec,
                     [&](std::size_t, std::size_t) {
                       (void)serve::serve_point_queries(loc, engine, queries,
                                                        out);
                     })));
  }

  const double speedup = rows[2].qps / rows[0].qps;
  print_rows(rows);
  std::fprintf(stderr,
              "flat vs simulator (single thread): %.1fx; answers equal: %s\n",
              speedup, equal ? "yes" : "NO");
  write_json(o, "serve_pointloc", sub.edges.size(), num_queries, rows, speedup,
             equal);
  return equal ? 0 : 1;
}

}  // namespace serve_bench
