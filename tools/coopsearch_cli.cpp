// coopsearch_cli — drive the library from the command line.
//
//   coopsearch_cli gen-tree  <height> <entries> <seed>        > tree.txt
//   coopsearch_cli gen-sub   <regions> <bands> <seed>         > sub.txt
//   coopsearch_cli search    <tree.txt> <p> <y> [<y>...] [--threads]
//   coopsearch_cli validate  <tree.txt>
//   coopsearch_cli pointloc  <regions> <bands> <seed> <p> <queries>
//   coopsearch_cli pointloc-file <sub.txt> <p> <queries> <seed>
//   coopsearch_cli serve     <tree.txt> <threads> <queries> <seed>
//                            [--metrics[=file]]
//   coopsearch_cli serve     --soak <millis> <seed> [threads]
//                            [--json] [--metrics[=file]]
//   coopsearch_cli snapshot save  <tree.txt> <out.snap>
//   coopsearch_cli snapshot load  <file.snap>
//   coopsearch_cli snapshot serve <file.snap> <threads> <queries> <seed>
//                                 [--check-tree <tree.txt>]
//   coopsearch_cli snapshot rewrite <in.snap> <out.snap>
//   coopsearch_cli cluster-partition <tree.txt> <outdir> <num_shards>
//   coopsearch_cli stats     [--prometheus] [--trace]
//   coopsearch_cli selftest
//
// Observability (DESIGN.md §10): `stats` exercises the simulator and the
// serving engine, then prints the scraped metrics registry to stdout
// (JSON by default, Prometheus text with --prometheus).  `serve
// --metrics` dumps the same JSON on exit — to stderr in the bare form so
// the serving output stays intact, or to a file with --metrics=FILE.
// `serve --soak --json` prints a machine-readable outcome document on
// stdout with every human diagnostic routed to stderr.
//
// Tree file format: first line "N"; then one line per node
// "<parent|-1> <k> <key_1> ... <key_k>" in id order (node 0 is the root,
// parents must precede children).  Subdivision file format: first line
// "f ymin ymax E"; then one edge per line "lox loy hix hiy min_sep max_sep".
//
// All inputs (arguments and files) are untrusted: every parse and build
// goes through the checked entry points and prints a Status + non-zero
// exit instead of tripping asserts or UB.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>

#include <chrono>

#include "cluster/partition.hpp"
#include "core/explicit_search.hpp"
#include "geom/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pointloc/coop_pointloc.hpp"
#include "robust/loaders.hpp"
#include "robust/soak.hpp"
#include "robust/validate.hpp"
#include "serve/query_engine.hpp"
#include "serve/soak.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

int fail(const coop::Status& s) {
  std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
  return 1;
}

int usage(const char* msg) {
  std::fprintf(stderr, "usage: %s\n", msg);
  return 2;
}

/// Strict integer parsing: the whole token must be a number in range.
bool parse_i64(const char* arg, long long min, long long max,
               long long& out) {
  if (arg == nullptr || *arg == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0' || v < min || v > max) {
    return false;
  }
  out = v;
  return true;
}

bool parse_size(const char* arg, std::size_t max, std::size_t& out) {
  long long v = 0;
  const long long hi = max > static_cast<std::size_t>(LLONG_MAX)
                           ? LLONG_MAX
                           : static_cast<long long>(max);
  if (!parse_i64(arg, 0, hi, v)) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

/// `--metrics` / `--metrics=FILE`: dump the scraped registry on exit.
struct MetricsFlag {
  bool enabled = false;
  std::string path;  // empty -> stderr
};

/// Pull --metrics[=FILE] out of argv (anywhere), compacting the
/// remaining arguments in place.  Returns the new argc.
int extract_metrics_flag(int argc, char** argv, MetricsFlag& mf) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      mf.enabled = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      mf.enabled = true;
      mf.path = argv[i] + 10;
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

/// Same trick for a bare boolean flag (e.g. --json).  Returns new argc.
int extract_bool_flag(int argc, char** argv, const char* name, bool& found) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

int dump_metrics(const MetricsFlag& mf) {
  if (!mf.enabled) {
    return 0;
  }
  const std::string doc = obs::export_global_json(/*with_trace=*/true);
  if (mf.path.empty()) {
    std::fputs(doc.c_str(), stderr);
    return 0;
  }
  std::FILE* f = std::fopen(mf.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n",
                 mf.path.c_str());
    return 1;
  }
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "metrics: wrote %zu bytes to %s\n", doc.size(),
               mf.path.c_str());
  return 0;
}

int cmd_gen_tree(int argc, char** argv) {
  std::size_t height = 0, entries = 0, seed = 0;
  if (argc < 3 || !parse_size(argv[0], 24, height) ||
      !parse_size(argv[1], std::size_t{1} << 24, entries) ||
      !parse_size(argv[2], SIZE_MAX, seed)) {
    return usage("gen-tree <height<=24> <entries<=2^24> <seed>");
  }
  std::mt19937_64 rng(seed);
  const auto t = cat::make_balanced_binary(static_cast<std::uint32_t>(height),
                                           entries, cat::CatalogShape::kRandom,
                                           rng);
  std::printf("%zu\n", t.num_nodes());
  for (std::size_t v = 0; v < t.num_nodes(); ++v) {
    const auto& c = t.catalog(cat::NodeId(v));
    std::printf("%d %zu", t.parent(cat::NodeId(v)), c.real_size());
    for (std::size_t i = 0; i < c.real_size(); ++i) {
      std::printf(" %lld", (long long)c.key(i));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_gen_sub(int argc, char** argv) {
  std::size_t regions = 0, bands = 0, seed = 0;
  if (argc < 3 || !parse_size(argv[0], std::size_t{1} << 20, regions) ||
      regions == 0 || !parse_size(argv[1], std::size_t{1} << 16, bands) ||
      !parse_size(argv[2], SIZE_MAX, seed)) {
    return usage("gen-sub <regions<=2^20> <bands<=2^16> <seed>");
  }
  std::mt19937_64 rng(seed);
  const auto sub = geom::make_random_monotone(regions, bands, rng);
  if (const auto s = robust::validate_subdivision(sub); !s.ok()) {
    return fail(coop::Status::internal("generator bug: " + s.message()));
  }
  std::printf("%zu %lld %lld %zu\n", sub.num_regions, (long long)sub.ymin,
              (long long)sub.ymax, sub.edges.size());
  for (const auto& e : sub.edges) {
    std::printf("%lld %lld %lld %lld %d %d\n", (long long)e.lo.x,
                (long long)e.lo.y, (long long)e.hi.x, (long long)e.hi.y,
                e.min_sep, e.max_sep);
  }
  return 0;
}

using robust::load_tree_file;

int cmd_search(int argc, char** argv) {
  const char* use =
      "search <tree.txt> <p> <y> [<y>...] [--threads]";
  if (argc < 3) {
    return usage(use);
  }
  bool threads = false;
  if (std::strcmp(argv[argc - 1], "--threads") == 0) {
    threads = true;
    --argc;
    if (argc < 3) {
      return usage(use);
    }
  }
  auto tree = load_tree_file(argv[0]);
  if (!tree.ok()) {
    return fail(tree.status());
  }
  std::size_t p = 0;
  if (!parse_size(argv[1], std::size_t{1} << 20, p) || p == 0) {
    return usage(use);
  }
  std::printf("tree: %zu nodes, height %u, %zu entries\n",
              tree->num_nodes(), tree->height(), tree->total_catalog_size());
  const auto s = fc::Structure::build_checked(*tree);
  if (!s.ok()) {
    return fail(s.status());
  }
  if (const auto st = robust::validate_fc(*s); !st.ok()) {
    return fail(st);
  }
  const auto cs = coop::CoopStructure::build_checked(*s);
  if (!cs.ok()) {
    return fail(cs.status());
  }
  std::printf("preprocessed: %zu aug entries, %zu skeleton entries, "
              "%u substructures\n",
              s->total_aug_entries(), cs->total_skeleton_entries(),
              cs->substructure_count());

  // Leftmost root-to-leaf path as the demo path.
  std::vector<cat::NodeId> path{tree->root()};
  while (!tree->is_leaf(path.back())) {
    path.push_back(tree->children(path.back())[0]);
  }
  const auto engine =
      threads ? pram::Engine::kThreads : pram::Engine::kSequential;
  for (int a = 2; a < argc; ++a) {
    long long yv = 0;
    if (!parse_i64(argv[a], INT64_MIN, INT64_MAX, yv)) {
      return usage(use);
    }
    const cat::Key y = cat::Key(yv);
    pram::RunReport report;
    const auto r = pram::run_resilient(
        p, pram::Model::kCrew, engine, std::chrono::seconds(30),
        [&](pram::Machine& m) {
          return coop::coop_search_explicit(*cs, m, path, y);
        },
        &report);
    std::printf("y=%lld (p=%zu, %llu steps, %llu hops%s): ", (long long)y, p,
                (unsigned long long)report.stats.steps,
                (unsigned long long)r.hops,
                report.degraded ? ", degraded" : "");
    if (report.degraded) {
      std::fprintf(stderr, "note: degraded run (%s)\n",
                   report.reason.c_str());
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      const auto& c = tree->catalog(path[i]);
      const std::size_t idx = r.proper_index[i];
      if (c.key(idx) == cat::kInfinity) {
        std::printf("[node %d: +inf] ", path[i]);
      } else {
        std::printf("[node %d: %lld] ", path[i], (long long)c.key(idx));
      }
      if (c.find(y) != idx) {
        std::fprintf(stderr, "\nMISMATCH vs binary search!\n");
        return 1;
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 1) {
    return usage("validate <tree.txt>");
  }
  auto tree = load_tree_file(argv[0]);
  if (!tree.ok()) {
    return fail(tree.status());
  }
  if (const auto s = robust::validate_tree(*tree); !s.ok()) {
    return fail(s);
  }
  const auto s = fc::Structure::build_checked(*tree);
  if (!s.ok()) {
    return fail(s.status());
  }
  const auto cs = coop::CoopStructure::build_checked(*s);
  if (!cs.ok()) {
    return fail(cs.status());
  }
  if (const auto st = robust::validate(*cs); !st.ok()) {
    return fail(st);
  }
  std::printf("OK: %zu nodes, %zu entries, %zu aug entries, "
              "%zu skeleton entries\n",
              tree->num_nodes(), tree->total_catalog_size(),
              s->total_aug_entries(), cs->total_skeleton_entries());
  return 0;
}

int run_pointloc(const geom::MonotoneSubdivision& sub, std::size_t p,
                 std::size_t queries, std::mt19937_64& rng) {
  auto st = pointloc::SeparatorTree::build_checked(sub);
  if (!st.ok()) {
    return fail(st.status());
  }
  std::printf("subdivision: %zu regions, %zu edges; structure %zu entries\n",
              sub.num_regions, sub.edges.size(), st->total_entries());
  std::uint64_t steps = 0;
  std::size_t mismatches = 0;
  for (std::size_t qi = 0; qi < queries; ++qi) {
    const auto q = geom::random_query_point(sub, rng);
    pram::Machine m(p);
    const auto got = pointloc::coop_locate(*st, m, q);
    steps += m.stats().steps;
    if (got != sub.locate_brute(q)) {
      ++mismatches;
    }
    if (qi < 5) {
      std::printf("  q=(%lld,%lld) -> region %zu (%llu steps)\n",
                  (long long)q.x, (long long)q.y, got,
                  (unsigned long long)m.stats().steps);
    }
  }
  std::printf("%zu queries, avg %.1f steps, %zu mismatches\n", queries,
              queries ? double(steps) / double(queries) : 0.0, mismatches);
  return mismatches == 0 ? 0 : 1;
}

int cmd_pointloc(int argc, char** argv) {
  std::size_t regions = 0, bands = 0, seed = 0, p = 0, queries = 0;
  if (argc < 5 || !parse_size(argv[0], std::size_t{1} << 20, regions) ||
      regions == 0 || !parse_size(argv[1], std::size_t{1} << 16, bands) ||
      !parse_size(argv[2], SIZE_MAX, seed) ||
      !parse_size(argv[3], std::size_t{1} << 20, p) || p == 0 ||
      !parse_size(argv[4], std::size_t{1} << 24, queries)) {
    return usage("pointloc <regions> <bands> <seed> <p> <queries>");
  }
  std::mt19937_64 rng(seed);
  const auto sub = geom::make_random_monotone(regions, bands, rng);
  if (const auto s = robust::validate_subdivision(sub); !s.ok()) {
    return fail(coop::Status::internal("generator bug: " + s.message()));
  }
  return run_pointloc(sub, p, queries, rng);
}

int cmd_pointloc_file(int argc, char** argv) {
  std::size_t p = 0, queries = 0, seed = 0;
  if (argc < 4 || !parse_size(argv[1], std::size_t{1} << 20, p) || p == 0 ||
      !parse_size(argv[2], std::size_t{1} << 24, queries) ||
      !parse_size(argv[3], SIZE_MAX, seed)) {
    return usage("pointloc-file <sub.txt> <p> <queries> <seed>");
  }
  std::ifstream in(argv[0]);
  if (!in) {
    return fail(coop::Status::invalid_argument(std::string("cannot open ") +
                                               argv[0]));
  }
  auto sub = robust::load_subdivision(in);
  if (!sub.ok()) {
    return fail(sub.status());
  }
  std::mt19937_64 rng(seed);
  return run_pointloc(*sub, p, queries, rng);
}

// Load a tree, compile the flat serving arena, run a batch of random
// root-leaf queries through the engine, and verify every answer against
// the catalogs' own binary search.  Untrusted input: a corrupted tree is
// rejected by the checked build / flat compiler, never served.
// serve --soak: the chaos soak (DESIGN.md §9) behind a CLI switch so CI
// and operators run the exact harness the integration test runs.  Exit 0
// only for a soak with zero wrong answers, zero unexpected failures, and
// every chaos goal observed (shed, breaker trip, quarantine, rollback).
int cmd_serve_soak(int argc, char** argv) {
  bool json_mode = false;
  argc = extract_bool_flag(argc, argv, "--json", json_mode);
  std::size_t millis = 0, seed = 0, threads = 4;
  if (argc < 2 || !parse_size(argv[0], 600'000, millis) || millis == 0 ||
      !parse_size(argv[1], SIZE_MAX, seed) ||
      (argc >= 3 && (!parse_size(argv[2], 256, threads) || threads == 0))) {
    return usage(
        "serve --soak <millis<=600000> <seed> [threads<=256] [--json]");
  }
  serve::SoakOptions opts;
  opts.seed = seed;
  opts.duration = std::chrono::milliseconds(millis);
  opts.engine_threads = threads;
  opts.verbose = true;
  const auto outcome = serve::run_chaos_soak(opts);
  if (!outcome.ok()) {
    return fail(outcome.status());
  }
  // With --json the human lines move to stderr so stdout carries exactly
  // one machine-parseable document.
  robust::ReportOptions where;
  where.json = json_mode;
  where.human = json_mode ? stderr : stdout;
  where.context = [&](robust::JsonFields& j) {
    j.count("seed", seed);
    j.count("millis", millis);
    j.count("threads", threads);
  };
  return robust::report("chaos soak", "serve_soak", *outcome, where);
}

int cmd_serve_batch(int argc, char** argv) {
  std::size_t threads = 0, queries = 0, seed = 0;
  if (argc < 4 || !parse_size(argv[1], 256, threads) || threads == 0 ||
      !parse_size(argv[2], std::size_t{1} << 24, queries) ||
      !parse_size(argv[3], SIZE_MAX, seed)) {
    return usage("serve <tree.txt> <threads<=256> <queries<=2^24> <seed> "
                 "[--metrics[=file]]");
  }
  auto tree = load_tree_file(argv[0]);
  if (!tree.ok()) {
    return fail(tree.status());
  }
  auto flat = serve::FlatCascade::compile_tree(*tree);
  if (!flat.ok()) {
    return fail(flat.status());
  }
  std::printf("arena: %zu nodes, %zu aug entries, %zu bytes\n",
              flat->num_nodes(), flat->total_entries(), flat->arena_bytes());

  std::mt19937_64 rng(seed);
  const std::vector<serve::PathQuery> batch =
      serve::random_path_batch(*tree, rng, queries);

  serve::QueryEngine engine(threads);
  serve::PathAnswerSet answers;
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = serve::serve_path_queries(*flat, engine, batch, answers);
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (report.degraded) {
    std::printf("degraded: %s\n", report.reason.c_str());
  }

  const std::uint64_t mismatches =
      serve::count_path_mismatches(*tree, batch, answers);
  std::printf("%zu queries on %zu threads: %.0f queries/sec, %llu "
              "mismatches\n",
              batch.size(), engine.threads(),
              sec > 0 ? double(batch.size()) / sec : 0.0,
              static_cast<unsigned long long>(mismatches));
  if (mismatches != 0) {
    return 1;
  }
  std::printf("serve OK\n");
  return 0;
}

int cmd_serve(int argc, char** argv) {
  MetricsFlag mf;
  argc = extract_metrics_flag(argc, argv, mf);
  int rc;
  if (argc >= 1 && std::strcmp(argv[0], "--soak") == 0) {
    rc = cmd_serve_soak(argc - 1, argv + 1);
  } else {
    rc = cmd_serve_batch(argc, argv);
  }
  if (dump_metrics(mf) != 0 && rc == 0) {
    rc = 1;
  }
  return rc;
}

// snapshot save: tree file -> checked build -> flat compile -> binary
// snapshot on disk.  Untrusted input discipline as everywhere else: a
// malformed tree is a printed Status, never a written snapshot.
int cmd_snapshot_save(int argc, char** argv) {
  if (argc < 2) {
    return usage("snapshot save <tree.txt> <out.snap>");
  }
  auto tree = load_tree_file(argv[0]);
  if (!tree.ok()) {
    return fail(tree.status());
  }
  auto flat = serve::FlatCascade::compile_tree(*tree);
  if (!flat.ok()) {
    return fail(flat.status());
  }
  if (const auto st = snapshot::write(*flat, argv[1]); !st.ok()) {
    return fail(st);
  }
  std::printf("snapshot saved: %zu nodes, %zu aug entries, %zu arena bytes "
              "-> %s\n",
              flat->num_nodes(), flat->total_entries(), flat->arena_bytes(),
              argv[1]);
  return 0;
}

// snapshot load: open (mmap + full header/CRC/bounds verification) and
// report what the file holds.  Exit 0 only for a servable snapshot.
int cmd_snapshot_load(int argc, char** argv) {
  if (argc < 1) {
    return usage("snapshot load <file.snap>");
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto snap = snapshot::open(argv[0]);
  if (!snap.ok()) {
    return fail(snap.status());
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const serve::FlatCascade& c = snap->kind == snapshot::SnapshotKind::kCascade
                                    ? snap->cascade
                                    : snap->pointloc->cascade();
  std::printf("snapshot OK: kind %s, %zu nodes, %zu aug entries, "
              "%zu mapped bytes, opened in %.3f ms\n",
              snap->kind == snapshot::SnapshotKind::kCascade ? "cascade"
                                                             : "pointloc",
              c.num_nodes(), c.total_entries(), snap->mapping.size(),
              sec * 1e3);
  return 0;
}

// snapshot serve: open the snapshot, publish it into a Registry, and
// serve a random batch through the engine via the epoch-pinned path.
// Every answer is checked grouped-kernel vs per-query; with
// --check-tree the answers are additionally checked against the source
// tree's own binary search (the full differential round-trip CI runs).
int cmd_snapshot_serve(int argc, char** argv) {
  const char* use = "snapshot serve <file.snap> <threads<=256> "
                    "<queries<=2^24> <seed> [--check-tree <tree.txt>]";
  const char* tree_path = nullptr;
  if (argc >= 6 && std::strcmp(argv[4], "--check-tree") == 0) {
    tree_path = argv[5];
    argc = 4;
  }
  std::size_t threads = 0, queries = 0, seed = 0;
  if (argc < 4 || !parse_size(argv[1], 256, threads) || threads == 0 ||
      !parse_size(argv[2], std::size_t{1} << 24, queries) ||
      !parse_size(argv[3], SIZE_MAX, seed)) {
    return usage(use);
  }
  auto snap = snapshot::open(argv[0]);
  if (!snap.ok()) {
    return fail(snap.status());
  }
  if (snap->kind != snapshot::SnapshotKind::kCascade) {
    return fail(coop::Status::failed_precondition(
        "snapshot serve expects a cascade snapshot"));
  }

  snapshot::Registry registry;
  registry.publish(snap.take());

  // Random root-to-leaf paths walked over the snapshot's own topology.
  std::mt19937_64 rng(seed);
  std::vector<serve::PathQuery> batch(queries);
  {
    const snapshot::Registry::Pin pin = registry.pin();
    const serve::FlatCascade& flat = pin.snapshot().cascade;
    for (auto& q : batch) {
      std::vector<cat::NodeId> path{
          static_cast<cat::NodeId>(flat.root())};
      std::uint32_t v = flat.root();
      while (!flat.is_leaf(v)) {
        v = flat.child(v, static_cast<std::uint32_t>(
                              rng() % flat.node(v).num_children));
        path.push_back(static_cast<cat::NodeId>(v));
      }
      q.path = std::move(path);
      q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
    }
  }

  serve::QueryEngine engine(threads);
  serve::PathAnswerSet answers;
  serve::BatchReport report;
  std::uint64_t version = 0;
  const auto t0 = std::chrono::steady_clock::now();
  if (const auto st = snapshot::serve_path_queries(
          registry, engine, batch, answers, &report, &version);
      !st.ok()) {
    return fail(st);
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (report.degraded) {
    std::printf("degraded: %s\n", report.reason.c_str());
  }

  std::size_t mismatches = 0;
  {
    const snapshot::Registry::Pin pin = registry.pin();
    const serve::FlatCascade& flat = pin.snapshot().cascade;
    std::vector<std::uint32_t> aug(64), prop(64);
    for (std::size_t qi = 0; qi < batch.size(); ++qi) {
      aug.resize(batch[qi].path.size());
      prop.resize(batch[qi].path.size());
      flat.search_path(batch[qi].path, batch[qi].y, aug.data(), prop.data());
      for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
        if (answers[qi].aug_index[i] != aug[i] ||
            answers[qi].proper_index[i] != prop[i]) {
          ++mismatches;
        }
      }
    }
  }
  if (tree_path != nullptr) {
    auto tree = load_tree_file(tree_path);
    if (!tree.ok()) {
      return fail(tree.status());
    }
    mismatches += serve::count_path_mismatches(*tree, batch, answers);
    std::printf("checked against %s\n", tree_path);
  }
  std::printf("version %llu: %zu queries on %zu threads: %.0f queries/sec, "
              "%zu mismatches\n",
              (unsigned long long)version, batch.size(), engine.threads(),
              sec > 0 ? double(batch.size()) / sec : 0.0, mismatches);
  if (mismatches != 0) {
    return 1;
  }
  std::printf("snapshot serve OK\n");
  return 0;
}

// snapshot rewrite: open IN with full verification and write it to OUT
// in the current format (atomically; IN may equal OUT).  Files from older
// writers — v2 files with per-node layout sections nothing reads, which
// every open and scrub would still prefault and CRC-check — come out as
// today's writer emits them.
int cmd_snapshot_rewrite(int argc, char** argv) {
  if (argc < 2) {
    return usage("snapshot rewrite <in.snap> <out.snap>");
  }
  if (const auto st = snapshot::rewrite(argv[0], argv[1]); !st.ok()) {
    return fail(st);
  }
  std::printf("snapshot rewritten: %s -> %s (format v%u)\n", argv[0],
              argv[1], static_cast<unsigned>(snapshot::kFormatVersion));
  return 0;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc < 1) {
    return usage("snapshot save|load|serve|rewrite [args]");
  }
  if (std::strcmp(argv[0], "save") == 0) {
    return cmd_snapshot_save(argc - 1, argv + 1);
  }
  if (std::strcmp(argv[0], "load") == 0) {
    return cmd_snapshot_load(argc - 1, argv + 1);
  }
  if (std::strcmp(argv[0], "serve") == 0) {
    return cmd_snapshot_serve(argc - 1, argv + 1);
  }
  if (std::strcmp(argv[0], "rewrite") == 0) {
    return cmd_snapshot_rewrite(argc - 1, argv + 1);
  }
  return usage("snapshot save|load|serve|rewrite [args]");
}

// stats: run a small deterministic workload through the PRAM simulator
// and the serving engine so the registry has something to show, then
// print the scrape to stdout — JSON by default, Prometheus text format
// with --prometheus, trace events included with --trace.  Diagnostics
// go to stderr so stdout stays machine-parseable.
int cmd_stats(int argc, char** argv) {
  bool prometheus = false;
  bool with_trace = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) {
      prometheus = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      with_trace = true;
    } else {
      return usage("stats [--prometheus] [--trace]");
    }
  }
  obs::TraceRing::global().configure(/*seed=*/1, /*sample_period=*/1);
  std::mt19937_64 rng(1);
  const auto t = cat::make_balanced_binary(6, 1000,
                                           cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build_checked(t);
  if (!s.ok()) {
    return fail(s.status());
  }
  const auto cs = coop::CoopStructure::build_checked(*s);
  if (!cs.ok()) {
    return fail(cs.status());
  }
  std::vector<cat::NodeId> path{t.root()};
  while (!t.is_leaf(path.back())) {
    path.push_back(t.children(path.back())[0]);
  }
  {
    pram::Machine m(64);
    for (cat::Key y : {0, 1000, 999999999}) {
      (void)coop::coop_search_explicit(*cs, m, path, y);
    }
  }
  auto flat = serve::FlatCascade::compile(*s);
  if (!flat.ok()) {
    return fail(flat.status());
  }
  std::vector<serve::PathQuery> batch(64);
  for (auto& q : batch) {
    q.path = path;
    q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
  }
  serve::QueryEngine engine(2);
  serve::PathAnswerSet answers;
  (void)serve::serve_path_queries(*flat, engine, batch, answers);
  std::fprintf(stderr,
               "stats: exercised the simulator and serving engine on a "
               "%zu-node demo tree\n",
               t.num_nodes());
  if (prometheus) {
    std::fputs(obs::to_prometheus(obs::Registry::global().scrape()).c_str(),
               stdout);
  } else {
    std::fputs(obs::export_global_json(with_trace).c_str(), stdout);
  }
  return 0;
}

int cmd_selftest() {
  std::mt19937_64 rng(1);
  const auto t = cat::make_balanced_binary(6, 1000,
                                           cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build_checked(t);
  if (!s.ok() || !robust::validate_fc(*s).ok()) {
    std::fprintf(stderr, "FAIL: cascading properties\n");
    return 1;
  }
  const auto cs = coop::CoopStructure::build_checked(*s);
  if (!cs.ok() || !robust::validate(*cs).ok()) {
    std::fprintf(stderr, "FAIL: coop structure invariants\n");
    return 1;
  }
  pram::Machine m(64);
  std::vector<cat::NodeId> path{t.root()};
  while (!t.is_leaf(path.back())) {
    path.push_back(t.children(path.back())[0]);
  }
  for (cat::Key y : {0, 1000, 999999999}) {
    const auto r = coop::coop_search_explicit(*cs, m, path, y);
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (r.proper_index[i] != t.catalog(path[i]).find(y)) {
        std::fprintf(stderr, "FAIL: search mismatch\n");
        return 1;
      }
    }
  }
  std::printf("selftest OK\n");
  return 0;
}

// cluster-partition: tree file -> checked build -> shard snapshots plus
// the routing map (DESIGN.md §15), ready for a coopserve fleet + router.
int cmd_cluster_partition(int argc, char** argv) {
  if (argc < 3) {
    return usage("cluster-partition <tree.txt> <outdir> <num_shards>");
  }
  char* end = nullptr;
  const unsigned long shards = std::strtoul(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0' || shards == 0 || shards > 1024) {
    return usage("cluster-partition <tree.txt> <outdir> <num_shards>");
  }
  auto tree = load_tree_file(argv[0]);
  if (!tree.ok()) {
    return fail(tree.status());
  }
  std::error_code ec;
  std::filesystem::create_directories(argv[1], ec);
  if (ec) {
    return fail(coop::Status::invalid_argument(
        "cannot create '" + std::string(argv[1]) + "': " + ec.message()));
  }
  auto map = cluster::partition_to_dir(
      *tree, static_cast<std::uint32_t>(shards), argv[1]);
  if (!map.ok()) {
    return fail(map.status());
  }
  for (std::uint32_t s = 0; s < map->num_shards; ++s) {
    std::printf("shard %u: %zu kept nodes -> %s\n", s,
                map->local_to_global[s].size(),
                cluster::shard_snapshot_path(argv[1], s).c_str());
  }
  std::printf("routing map: %zu nodes over %llu shards -> %s\n",
              map->num_nodes(),
              static_cast<unsigned long long>(map->num_shards),
              cluster::routing_map_path(argv[1]).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      return usage("coopsearch_cli gen-tree|gen-sub|search|validate|pointloc|"
                   "pointloc-file|serve|snapshot|cluster-partition|stats|"
                   "selftest [args]");
    }
    if (std::strcmp(argv[1], "gen-tree") == 0) {
      return cmd_gen_tree(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "gen-sub") == 0) {
      return cmd_gen_sub(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "search") == 0) {
      return cmd_search(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "validate") == 0) {
      return cmd_validate(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "pointloc") == 0) {
      return cmd_pointloc(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "pointloc-file") == 0) {
      return cmd_pointloc_file(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return cmd_serve(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "snapshot") == 0) {
      return cmd_snapshot(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "cluster-partition") == 0) {
      return cmd_cluster_partition(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "stats") == 0) {
      return cmd_stats(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "selftest") == 0) {
      return cmd_selftest();
    }
    std::fprintf(stderr, "unknown command %s\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: INTERNAL: unhandled exception: %s\n",
                 e.what());
    return 1;
  }
}
