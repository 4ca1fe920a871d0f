// Dynamic-catalog serving benchmark (DESIGN.md §13): what merge-on-read
// costs as overlay depth grows, plus raw delta-log write throughput.
//
//   bench_mutate --json[=FILE] [--smoke] [--queries=Q]
//
// Rows (threads=1 — search_paths_dyn is the single-threaded building
// block; engine sharding is measured by the frontend benches):
//
//   flat_base        — the untouched grouped base kernel on the same
//                      instance and query set (the static hot path)
//   dyn_read_depth0  — search_paths_dyn over a state with zero runs:
//                      base kernel + one ProperIndex load per hop.  The
//                      ratio flat_base/depth0 is the whole price a
//                      static workload pays for routing through the
//                      dynamic path (a *static* collection never does).
//   dyn_read_depthD  — D runs layered on every node (D = 1, 4, 16):
//                      the merge cursor fans over D+1 sources per
//                      touched (query, node) pair.  The depth curve is
//                      the practical face of the query/update tradeoff
//                      the dynamic-fractional-cascading lower bounds
//                      price (DESIGN.md §13).
//   mutate_write     — DynamicCatalog::apply throughput in
//                      mutations/sec (batch 64, default merge policy,
//                      so periodic in-memory merges are in the number).
//
// Differential gate: before any timing, depth-16 answers are checked
// against State::live_successor (the independent per-key merge) and
// depth-0 answers against a plain binary search over the proper keys —
// a wrong merged answer can never post a throughput number.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "dyn/overlay.hpp"
#include "serve_compare.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using serve_bench::make_row;
using serve_bench::measure;
using serve_bench::Options;
using serve_bench::Row;

constexpr cat::Key kKeyRange = 1'000'000'000;

/// Layer one single-key insert run over every node (one more unit of
/// overlay depth).  merge_threshold is kept above the deepest row, so
/// the in-memory merge never collapses what a row is measuring.
bool add_depth_round(dyn::DynamicCatalog& cat, std::mt19937_64& rng) {
  const std::size_t n = cat.state()->base->proper.num_nodes();
  const std::size_t chunk = cat.options().max_batch;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    std::vector<dyn::Mutation> batch;
    batch.reserve(hi - lo);
    for (std::size_t v = lo; v < hi; ++v) {
      batch.push_back({static_cast<std::uint32_t>(v),
                       static_cast<cat::Key>(rng() % kKeyRange),
                       dyn::Op::kInsert});
    }
    if (auto r = cat.apply(batch); !r.ok()) {
      std::fprintf(stderr, "error: apply failed: %s\n",
                   r.status().to_string().c_str());
      return false;
    }
  }
  return true;
}

void write_mutate_json_to(std::FILE* f, const Options& o, std::size_t n,
                          std::size_t num_queries,
                          const std::vector<Row>& rows,
                          double depth0_overhead, bool equal_answers) {
  std::fprintf(f, "{\n  \"bench\": \"serve_mutate\",\n  \"smoke\": %s,\n",
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
  std::fprintf(f, "  \"depth0_overhead\": %.3f,\n", depth0_overhead);
  std::fprintf(f, "  \"equal_answers\": %s\n}\n",
               equal_answers ? "true" : "false");
}

void write_mutate_json(const Options& o, std::size_t n,
                       std::size_t num_queries, const std::vector<Row>& rows,
                       double depth0_overhead, bool equal_answers) {
  write_mutate_json_to(stdout, o, n, num_queries, rows, depth0_overhead,
                       equal_answers);
  std::FILE* f = std::fopen(o.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", o.out_path.c_str());
    return;
  }
  write_mutate_json_to(f, o, n, num_queries, rows, depth0_overhead,
                       equal_answers);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", o.out_path.c_str());
}

int run_mutate_bench(const Options& o) {
  const std::uint32_t height = o.smoke ? 10 : 16;
  const std::size_t entries =
      o.smoke ? (std::size_t{1} << 16) : (std::size_t{1} << 20);
  const std::size_t num_queries =
      o.queries != 0 ? o.queries : (o.smoke ? 2000 : 20000);
  const double min_sec = o.smoke ? 0.2 : 0.5;

  std::fprintf(stderr, "building: height %u, %zu entries...\n", height,
               entries);
  std::mt19937_64 rng(42);
  const auto tree = cat::make_balanced_binary(height, entries,
                                              cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(tree);
  auto flat_e = serve::FlatCascade::compile(s);
  if (!flat_e.ok()) {
    std::fprintf(stderr, "error: %s\n", flat_e.status().to_string().c_str());
    return 1;
  }

  snapshot::Registry registry;
  registry.mark_good(
      registry.publish(snapshot::Snapshot::in_memory(flat_e.take())));
  dyn::DynamicCatalog::Options copts;
  copts.merge_threshold = 64;  // above the deepest row: no auto-merge
  auto attached = dyn::DynamicCatalog::attach(registry, copts);
  if (!attached.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 attached.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<dyn::DynamicCatalog> cat = attached.take();
  const serve::FlatCascade& flat = cat->state()->base->flat();

  const std::vector<serve::PathQuery> queries =
      serve::random_path_batch(tree, rng, num_queries);

  const std::vector<serve::PathRef> refs = serve::path_refs(queries);
  const auto part = [&](std::size_t at, std::size_t c) {
    return std::span<const serve::PathRef>(refs).subspan(at, c);
  };

  std::vector<Row> rows;
  serve::PathAnswerSet base_out;
  dyn::PathKeySet dyn_out;
  bool equal = true;

  rows.push_back(make_row(
      "flat_base", 1,
      measure(num_queries, 1000, min_sec,
              [&](std::size_t at, std::size_t c) {
                base_out.reset(part(at, c));
                for (std::size_t gi = 0; gi < serve::path_groups(c); ++gi) {
                  serve::serve_path_group(flat, part(at, c), gi, base_out);
                }
              })));

  // Depth rows in increasing order, deepening the same overlay between
  // measurements (depth0 first, before any run exists).
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                  std::size_t{4}, std::size_t{16}}) {
    while (cat->state()->max_depth < depth) {
      if (!add_depth_round(*cat, rng)) {
        return 1;
      }
    }
    const dyn::StatePtr st = cat->state();
    if (st->max_depth != depth) {
      std::fprintf(stderr, "error: overlay depth %zu, wanted %zu\n",
                   st->max_depth, depth);
      return 1;
    }
    if (depth == 0) {
      // Differential gate at depth 0: the hint-indexed proper key must
      // match an independent binary search over the node's proper keys.
      const std::size_t check = std::min<std::size_t>(256, num_queries);
      dyn::PathKeySet got;
      dyn::search_paths_dyn(*st, part(0, check), got);
      for (std::size_t qi = 0; qi < check && equal; ++qi) {
        for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
          const auto node =
              static_cast<std::uint32_t>(queries[qi].path[i]);
          const auto keys = st->base->proper.node_keys(node);
          const auto it =
              std::lower_bound(keys.begin(), keys.end(), queries[qi].y);
          if (it == keys.end() || got.keys(qi)[i] != *it) {
            equal = false;
          }
        }
      }
    }
    char mode[40];  // "dyn_read_depth" + up to 20 digits + NUL
    std::snprintf(mode, sizeof(mode), "dyn_read_depth%zu", depth);
    rows.push_back(make_row(
        mode, 1,
        measure(num_queries, 1000, min_sec,
                [&](std::size_t at, std::size_t c) {
                  dyn::search_paths_dyn(*st, part(at, c), dyn_out);
                })));
  }

  {
    // Differential gate at full depth: every merged answer must match
    // the independent per-key merge.
    const dyn::StatePtr st = cat->state();
    const std::size_t check = std::min<std::size_t>(256, num_queries);
    dyn::PathKeySet got;
    dyn::search_paths_dyn(*st, part(0, check), got);
    for (std::size_t qi = 0; qi < check && equal; ++qi) {
      for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
        const auto node = static_cast<std::uint32_t>(queries[qi].path[i]);
        if (got.keys(qi)[i] != st->live_successor(node, queries[qi].y)) {
          equal = false;
        }
      }
    }
  }

  {
    // Write throughput on a fresh catalog with the default merge policy
    // (threshold 8): steady-state apply cost includes the periodic
    // in-memory merges that bound overlay depth.
    auto wr = dyn::DynamicCatalog::attach(registry, {});
    if (!wr.ok()) {
      std::fprintf(stderr, "error: %s\n", wr.status().to_string().c_str());
      return 1;
    }
    std::unique_ptr<dyn::DynamicCatalog> wcat = wr.take();
    const std::size_t n = flat.num_nodes();
    const std::size_t total_muts = o.smoke ? (std::size_t{1} << 15)
                                           : (std::size_t{1} << 17);
    std::vector<dyn::Mutation> muts(total_muts);
    for (auto& m : muts) {
      m = {static_cast<std::uint32_t>(rng() % n),
           static_cast<cat::Key>(rng() % kKeyRange),
           (rng() % 3 == 0) ? dyn::Op::kDelete : dyn::Op::kInsert};
    }
    rows.push_back(make_row(
        "mutate_write", 1,
        measure(total_muts, 64, min_sec,
                [&](std::size_t at, std::size_t c) {
                  (void)wcat->apply(
                      std::span<const dyn::Mutation>(muts.data() + at, c));
                })));
  }

  double base_qps = 0, depth0_qps = 0;
  for (const auto& r : rows) {
    if (r.mode == "flat_base") base_qps = r.qps;
    if (r.mode == "dyn_read_depth0") depth0_qps = r.qps;
  }
  const double depth0_overhead =
      depth0_qps > 0 ? base_qps / depth0_qps : 0;
  serve_bench::print_rows(rows);
  std::fprintf(stderr,
               "depth-0 overhead vs base kernel: %.3fx; answers equal: %s\n",
               depth0_overhead, equal ? "yes" : "NO");
  write_mutate_json(o, entries, num_queries, rows, depth0_overhead, equal);
  return equal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!serve_bench::parse_args(argc, argv, o, "BENCH_mutate.json")) {
    std::fprintf(stderr,
                 "usage: bench_mutate --json[=FILE] [--smoke] [--queries=Q]\n"
                 "(google-benchmark mode is not wired for this experiment; "
                 "--json is required)\n");
    return 2;
  }
  return run_mutate_bench(o);
}
