// Overload benchmark (DESIGN.md §9): what admission control buys when
// offered load exceeds capacity.
//
//   bench_overload [--json[=FILE]] [--smoke] [--queries=Q]
//
//   * capacity:  batch qps of a single client driving serve::Frontend
//     with an uncontended admission budget — the service's ceiling
//   * overload:  ~2x capacity offered across paced clients against a
//     tight in-flight budget; the frontend must shed the excess with
//     RESOURCE_EXHAUSTED while admitted batches keep their latency
//     (p50/p99 of admitted batch round-trips reported)
//
// Every spot-checked answer is verified against the source tree's own
// binary search.  Always runs standalone (no google-benchmark harness);
// --json writes BENCH_overload.json for scripts/summarize_bench.py and
// the bench-smoke CI job.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "serve_compare.hpp"
#include "serve/frontend.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using serve_bench::Options;
using serve_bench::seconds_since;
using Clock = std::chrono::steady_clock;

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) {
    return 0;
  }
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

int run(const Options& o, bool emit_json) {
  const std::uint32_t height = o.smoke ? 10 : 16;
  const std::size_t entries = o.smoke ? (std::size_t{1} << 16)
                                      : (std::size_t{1} << 20);
  const std::size_t batch_queries =
      o.queries != 0 ? o.queries : (o.smoke ? 256 : 1024);
  const double capacity_sec = o.smoke ? 0.3 : 1.0;
  const double overload_sec = o.smoke ? 0.6 : 2.0;
  const std::string snap_path = o.out_path + ".arena.snap";

  std::printf("building: height %u, %zu entries...\n", height, entries);
  std::mt19937_64 rng(42);
  const auto tree = cat::make_balanced_binary(height, entries,
                                              cat::CatalogShape::kRandom, rng);
  const auto s = fc::Structure::build(tree);
  auto flat = serve::FlatCascade::compile(s);
  if (!flat.ok()) {
    std::fprintf(stderr, "error: %s\n", flat.status().to_string().c_str());
    return 1;
  }
  if (const auto st = snapshot::write(*flat, snap_path); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  snapshot::Registry registry;
  {
    auto snap = snapshot::open(snap_path);
    if (!snap.ok()) {
      std::fprintf(stderr, "error: %s\n", snap.status().to_string().c_str());
      return 1;
    }
    registry.publish(snap.take());
  }

  const std::vector<serve::PathQuery> queries =
      serve::random_path_batch(tree, rng, batch_queries);

  serve::QueryEngine engine(4);

  // Differential gate: frontend answers are defined by the source
  // catalogs' binary search.
  bool equal = true;
  {
    serve::FrontendOptions fopts;
    fopts.max_inflight = 1;
    serve::Frontend frontend(registry, engine, fopts);
    std::vector<serve::PathAnswer> answers;
    if (!frontend.serve_paths(queries, answers).ok()) {
      equal = false;
    }
    const std::size_t check = std::min<std::size_t>(200, batch_queries);
    for (std::size_t qi = 0; qi < check && equal; ++qi) {
      for (std::size_t i = 0; i < queries[qi].path.size(); ++i) {
        if (answers[qi].proper_index[i] !=
            tree.catalog(queries[qi].path[i]).find(queries[qi].y)) {
          equal = false;
        }
      }
    }
  }

  // Phase 1 — capacity: one client, uncontended budget.
  double capacity_qps = 0;
  {
    serve::FrontendOptions fopts;
    fopts.max_inflight = 64;
    serve::Frontend frontend(registry, engine, fopts);
    std::vector<serve::PathAnswer> answers;
    std::size_t served = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      if (frontend.serve_paths(queries, answers).ok()) {
        served += batch_queries;
      }
      elapsed = seconds_since(t0);
    } while (elapsed < capacity_sec);
    capacity_qps = static_cast<double>(served) / elapsed;
  }
  std::printf("capacity: %.0f queries/sec (batch %zu, 1 client)\n",
              capacity_qps, batch_queries);

  // Phase 2 — overload: offer ~2x capacity across paced clients against a
  // tight in-flight budget.  Each client fires batches on a fixed cadence
  // (open-loop: a shed batch is NOT retried, the next one stays on
  // schedule), so offered load is independent of how the service copes.
  const std::size_t n_clients = 4;
  const double offered_target = 2.0 * capacity_qps;
  const double batches_per_sec_per_client =
      offered_target / static_cast<double>(batch_queries * n_clients);
  const auto cadence = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / batches_per_sec_per_client));

  serve::FrontendOptions fopts;
  fopts.max_inflight = 2;  // the bottleneck under test
  fopts.max_retries = 0;   // open-loop: shedding is the release valve
  serve::Frontend frontend(registry, engine, fopts);

  struct ClientResult {
    std::size_t offered = 0, admitted = 0, shed = 0, other = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<ClientResult> results(n_clients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  const auto t_start = Clock::now();
  for (std::size_t ci = 0; ci < n_clients; ++ci) {
    clients.emplace_back([&, ci] {
      ClientResult& r = results[ci];
      std::vector<serve::PathAnswer> answers;
      auto next_at = t_start + cadence * static_cast<int>(ci + 1);
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(next_at);
        next_at += cadence;
        const auto t0 = Clock::now();
        const auto st = frontend.serve_paths(queries, answers);
        ++r.offered;
        if (st.ok()) {
          ++r.admitted;
          r.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count());
        } else if (st.code() == coop::StatusCode::kResourceExhausted) {
          ++r.shed;
        } else {
          ++r.other;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(overload_sec));
  stop.store(true, std::memory_order_release);
  for (auto& c : clients) {
    c.join();
  }
  const double elapsed = seconds_since(t_start);

  std::size_t offered = 0, admitted = 0, shed = 0, other = 0;
  std::vector<double> latencies;
  for (const auto& r : results) {
    offered += r.offered;
    admitted += r.admitted;
    shed += r.shed;
    other += r.other;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double q = static_cast<double>(batch_queries);
  const double offered_qps = static_cast<double>(offered) * q / elapsed;
  const double admitted_qps = static_cast<double>(admitted) * q / elapsed;
  const double shed_qps = static_cast<double>(shed) * q / elapsed;
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  std::printf("overload: offered %.0f q/s (target %.0f), admitted %.0f q/s, "
              "shed %.0f q/s, %zu other errors\n",
              offered_qps, offered_target, admitted_qps, shed_qps, other);
  std::printf("admitted batch latency: p50 %.2f ms, p99 %.2f ms "
              "(%zu batches)\n", p50, p99, latencies.size());
  std::printf("answers equal: %s\n", equal ? "yes" : "NO");

  if (emit_json) {
    std::FILE* f = std::fopen(o.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", o.out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"overload\",\n  \"smoke\": %s,\n",
                 o.smoke ? "true" : "false");
    std::fprintf(f, "  \"n\": %zu,\n  \"queries\": %zu,\n", entries,
                 batch_queries);
    std::fprintf(f, "  \"clients\": %zu,\n  \"max_inflight\": %zu,\n",
                 n_clients, fopts.max_inflight);
    std::fprintf(f, "  \"capacity_qps\": %.1f,\n", capacity_qps);
    std::fprintf(f, "  \"offered_qps\": %.1f,\n", offered_qps);
    std::fprintf(f, "  \"admitted_qps\": %.1f,\n", admitted_qps);
    std::fprintf(f, "  \"shed_qps\": %.1f,\n", shed_qps);
    std::fprintf(f, "  \"other_errors\": %zu,\n", other);
    std::fprintf(f, "  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n", p50, p99);
    std::fprintf(f, "  \"equal_answers\": %s\n}\n", equal ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", o.out_path.c_str());
  }
  std::remove(snap_path.c_str());
  return equal && other == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const bool emit_json =
      serve_bench::parse_args(argc, argv, o, "BENCH_overload.json");
  return run(o, emit_json);
}
