// coopload: load generator and admin client for coopserve.
//
//   coopload --port N [--host H] --op bench --tree tree.txt
//            [--collection NAME]... [--threads N] [--duration-ms N]
//            [--batch N] [--tenant N] [--deadline-ns N] [--seed N]
//            [--check] [--json | --json=FILE]
//   coopload --port N --op rw --tree tree.txt [--collection NAME]
//            [--threads N] [--duration-ms N] [--seed N]
//            [--json | --json=FILE]
//   coopload --port N --op metrics|health|drain
//   coopload --port N --op load|swap --collection NAME --snapshot F.snap
//   coopload --port N --op unload --collection NAME
//   coopload --op crash-soak --server-bin PATH --snapshot F.snap
//            --tree tree.txt --wal-dir DIR [--cycles N] [--seed N]
//            [--fsync every-ack|interval|none] [--json | --json=FILE]
//
// bench aims --threads clients at each named collection (default: just
// "main") for --duration-ms, sending --batch-query path batches built
// from random root-to-leaf walks of --tree (the same tree file the
// server's snapshot was compiled from).  --check verifies every answer
// against the in-process catalog oracle; any mismatch is a nonzero
// exit.  --json emits one {"bench":"wire","rows":[...]} document with a
// (mode, threads, qps, p99_ns) row per collection, the shape
// scripts/check_bench_regression.py gates against bench/baselines/.
// --port-file PATH reads the port coopserve wrote there.
//
// rw drives the write path of a *dynamic* collection (coopserve
// --dynamic-collection): --threads writers, each on its own key slice,
// MUTATE and read their writes back with DYN_PATH_BATCH against a
// dyn::SliceJournal while thread 0 issues COMPACT (DESIGN.md §13).
//
// crash-soak is the kill -9 supervisor (DESIGN.md §14): it restarts a
// durable coopserve, storms it with writes, SIGKILLs it at seeded points
// (robust::CrashPlan) and checks that every *acknowledged* write is
// still served; writes in flight at a kill stay indeterminate.
//
// Both, like cluster-soak, report through the soak kernel
// (robust/soak.hpp): a verdict, a summary line, and with --json one
// {"soak": ...} document.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "cluster/child_process.hpp"
#include "cluster/cluster_soak.hpp"
#include "dyn/delta.hpp"
#include "dyn/slice_journal.hpp"
#include "flags.hpp"
#include "net/client.hpp"
#include "robust/chaos.hpp"
#include "robust/loaders.hpp"
#include "robust/soak.hpp"
#include "serve/frontend.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using coop::StatusCode;

int usage() {
  std::fprintf(
      stderr,
      "usage: coopload --port N | --port-file PATH [--host H]\n"
      "                --op bench|rw|metrics|health|drain|load|swap\n"
      "                     |unload|compact\n"
      "  bench:  --tree tree.txt [--collection NAME]... [--threads N]\n"
      "          [--duration-ms N] [--batch N] [--tenant N]\n"
      "          [--deadline-ns N] [--seed N] [--check]\n"
      "          [--json | --json=FILE]\n"
      "  rw:     --tree tree.txt [--collection NAME] [--threads N]\n"
      "          [--duration-ms N] [--seed N] [--json | --json=FILE]\n"
      "          (collection must be dynamic: coopserve\n"
      "           --dynamic-collection)\n"
      "  load/swap: --collection NAME --snapshot FILE.snap\n"
      "  unload:    --collection NAME\n"
      "  compact:   --collection NAME  (synchronous compaction cycle)\n"
      "  crash-soak: --server-bin PATH --snapshot FILE.snap\n"
      "          --tree tree.txt --wal-dir DIR [--cycles N] [--seed N]\n"
      "          [--fsync every-ack|interval|none] [--json | --json=FILE]\n"
      "          (no --port: the supervisor spawns and kills its own\n"
      "           coopserve)\n"
      "  cluster-soak: --server-bin PATH --dir DIR [--duration-ms N]\n"
      "          [--threads N] [--shards N] [--seed N]\n"
      "          [--json | --json=FILE]\n"
      "          (no --port: spawns its own shard fleet + router and\n"
      "           SIGKILLs a shard mid-traffic)\n"
      "  bench extras: [--label NAME] tags the emitted JSON document\n"
      "          (default \"wire\"), e.g. --label cluster when aimed at a\n"
      "          router\n");
  return 2;
}

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string op = "bench";
  std::vector<std::string> collections;
  std::string snapshot;
  std::string tree_path;
  std::size_t threads = 4;
  std::uint64_t duration_ms = 2000;
  std::size_t batch = 64;
  std::uint64_t tenant = 1;
  std::uint64_t deadline_ns = 0;
  std::uint64_t seed = 1;
  bool check = false;
  bool json = false;
  std::string json_path;  // empty -> stdout
  // bench only:
  std::string label = "wire";
  // crash-soak only:
  std::string server_bin;
  std::string wal_dir;
  std::uint64_t cycles = 50;
  std::string fsync = "every-ack";
  // cluster-soak only:
  std::string cluster_dir = "cluster_soak";
  std::uint64_t shards = 3;
};

/// Emit (stdout or --json=FILE) a typed machine-readable error document
/// so a CI gate never mistakes a connection-phase failure for an empty
/// bench, and return nonzero.
int typed_json_error(const Args& a, const char* phase,
                     const coop::Status& st) {
  std::fprintf(stderr, "coopload: %s failed: %s\n", phase,
               st.to_string().c_str());
  if (a.json) {
    robust::JsonFields error;
    error.text("phase", phase);
    error.count("code", static_cast<std::uint64_t>(st.code()));
    error.text("message", st.to_string());
    robust::JsonFields doc;
    doc.text("bench", a.label);
    doc.raw("rows", "[]");
    doc.raw("error", error.str());
    (void)robust::emit_json(a.json_path, doc.str());
  }
  return 1;
}

/// The --tree file, loaded through the checked loader.  On failure
/// prints why and sets `rc`: 2 when the flag is missing, 1 otherwise.
std::optional<cat::Tree> tree_arg(const Args& a, int& rc) {
  if (a.tree_path.empty()) {
    std::fprintf(stderr, "error: --op %s needs --tree tree.txt\n",
                 a.op.c_str());
    rc = 2;
    return std::nullopt;
  }
  auto loaded = robust::load_tree_file(a.tree_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", a.tree_path.c_str(),
                 loaded.status().to_string().c_str());
    rc = 1;
    return std::nullopt;
  }
  return loaded.take();
}

int run_bench(const Args& a) {
  int rc = 0;
  const std::optional<cat::Tree> loaded = tree_arg(a, rc);
  if (!loaded) {
    return rc;
  }
  const cat::Tree& tree = *loaded;
  const std::vector<std::string> cols =
      a.collections.empty() ? std::vector<std::string>{"main"}
                            : a.collections;

  // HEALTH preflight: fail fast (nonzero, typed JSON) when the server is
  // unreachable or closes the connection during setup, instead of letting
  // every fleet thread die quietly and reporting an empty-looking bench.
  {
    net::ClientOptions copts;
    copts.tenant = a.tenant;
    auto pre = net::Client::connect(a.host, a.port, copts);
    if (!pre.ok()) {
      return typed_json_error(a, "connect", pre.status());
    }
    auto h = pre->health();
    if (!h.ok()) {
      return typed_json_error(a, "health", h.status());
    }
  }

  std::string rows;
  std::uint64_t mismatches = 0, errors = 0;
  std::string first_error;
  robust::FirstFailure fail(first_error);
  for (const std::string& col : cols) {
    std::atomic<std::uint64_t> answered{0}, sheds{0}, bad{0};
    std::vector<std::vector<std::uint64_t>> lat(a.threads);
    std::vector<std::thread> fleet;
    const auto until =
        Clock::now() + std::chrono::milliseconds(a.duration_ms);
    for (std::size_t t = 0; t < a.threads; ++t) {
      fleet.emplace_back([&, t] {
        std::mt19937_64 rng(a.seed ^ (0xB0B0ull * (t + 1)));
        net::ClientOptions copts;
        copts.tenant = a.tenant + t;
        copts.deadline_ns = a.deadline_ns;
        auto c = net::Client::connect(a.host, a.port, copts);
        if (!c.ok()) {
          fail(errors, c.status().to_string());
          return;
        }
        net::Client client = c.take();
        while (Clock::now() < until) {
          const std::vector<serve::PathQuery> batch =
              serve::random_path_batch(tree, rng, a.batch);
          const auto t0 = Clock::now();
          auto resp = client.path_batch(col, batch);
          const auto t1 = Clock::now();
          if (resp.ok()) {
            answered.fetch_add(batch.size(), std::memory_order_relaxed);
            lat[t].push_back(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                     t0)
                    .count()));
            if (a.check) {
              bad.fetch_add(
                  serve::count_path_mismatches(tree, batch, resp->answers),
                  std::memory_order_relaxed);
            }
          } else if (resp.status().code() ==
                         StatusCode::kResourceExhausted ||
                     resp.status().code() ==
                         StatusCode::kUnavailable) {
            // kResourceExhausted: admission shed.  kUnavailable: a
            // router shed traffic for a dead shard; both are typed
            // load-shedding, not bench errors.
            sheds.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else {
            fail(errors, resp.status().to_string());
            return;  // a broken stream will not heal; stop this thread
          }
        }
      });
    }
    const auto begun = Clock::now();
    for (std::thread& th : fleet) {
      th.join();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - begun).count();

    std::vector<std::uint64_t> merged;
    for (auto& v : lat) {
      merged.insert(merged.end(), v.begin(), v.end());
    }
    std::sort(merged.begin(), merged.end());
    const std::string mode = "paths:" + col;
    const double qps =
        secs > 0 ? static_cast<double>(answered.load()) / secs : 0.0;
    const std::uint64_t p99_ns =
        merged.empty() ? 0 : merged[merged.size() * 99 / 100];
    robust::JsonFields row;
    row.text("mode", mode);
    row.count("threads", a.threads);
    row.real("qps", qps);
    row.count("p99_ns", p99_ns);
    row.count("sheds", sheds.load());
    rows += (rows.empty() ? "" : ",") + row.str();
    mismatches += bad.load();
    std::fprintf(stderr,
                 "%-16s threads=%zu qps=%.0f p99=%.3fms answered=%llu "
                 "sheds=%llu\n",
                 mode.c_str(), a.threads, qps,
                 static_cast<double>(p99_ns) / 1e6,
                 static_cast<unsigned long long>(answered.load()),
                 static_cast<unsigned long long>(sheds.load()));
  }
  if (errors > 0) {
    std::fprintf(stderr, "coopload: %llu request errors (first: %s)\n",
                 static_cast<unsigned long long>(errors),
                 first_error.c_str());
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "coopload: %llu ORACLE MISMATCHES\n",
                 static_cast<unsigned long long>(mismatches));
  }

  if (a.json) {
    robust::JsonFields doc;
    doc.text("bench", a.label);
    doc.raw("rows", "[" + rows + "]");
    doc.flag("checked", a.check);
    doc.count("mismatches", mismatches);
    doc.count("errors", errors);
    if (!robust::emit_json(a.json_path, doc.str())) {
      return 1;
    }
  }
  return (mismatches == 0 && errors == 0) ? 0 : 1;
}

/// The read-write soak's outcome, in the soak kernel's shape
/// (robust/soak.hpp).
struct RwOutcome : robust::SoakResult {
  std::uint64_t mutates = 0;
  std::uint64_t reads = 0;
  std::uint64_t checks = 0;
  std::uint64_t wrong_answers = 0;
  std::uint64_t errors = 0;
  std::uint64_t compactions = 0;

  void fields(robust::FieldList& v) const {
    v.count("mutates", mutates);
    v.count("reads", reads);
    v.count("checks", checks);
    v.wrong("wrong_answers", wrong_answers);
    v.failure("errors", errors);
    v.goal("compactions", compactions, 3);
  }
};

int run_rw(const Args& a) {
  int rc = 0;
  const std::optional<cat::Tree> loaded = tree_arg(a, rc);
  if (!loaded) {
    return rc;
  }
  const cat::Tree& tree = *loaded;
  if (const coop::Status st = dyn::SliceJournal::check_base(tree); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  const std::string col =
      a.collections.empty() ? "main" : a.collections.front();

  RwOutcome out;
  robust::FirstFailure fail(out.first_failure);
  std::vector<std::thread> fleet;
  const auto until = Clock::now() + std::chrono::milliseconds(a.duration_ms);
  for (std::size_t t = 0; t < a.threads; ++t) {
    fleet.emplace_back([&, t] {
      std::mt19937_64 rng(a.seed ^ (0xD15C0ull * (t + 1)));
      net::ClientOptions copts;
      copts.tenant = a.tenant + t;
      auto c = net::Client::connect(a.host, a.port, copts);
      if (!c.ok()) {
        fail(out.errors, c.status().to_string());
        return;
      }
      net::Client client = c.take();
      dyn::SliceJournal journal(t);
      std::uint64_t last_version = 0;
      std::uint64_t iter = 0;
      while (Clock::now() < until) {
        ++iter;
        // One root-to-leaf path; mutate a handful of its nodes.
        const std::vector<cat::NodeId> path = serve::random_path(tree, rng);
        const std::vector<dyn::Mutation> muts =
            journal.random_batch(rng, 6, 3, [&] {
              return static_cast<std::uint32_t>(path[rng() % path.size()]);
            });
        std::vector<std::vector<std::uint8_t>> blobs;
        for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
          blobs.push_back(dyn::encode_run(r));
        }
        auto ack = client.mutate(col, std::move(blobs));
        if (!ack.ok()) {
          fail(out.errors, ack.status().to_string());
          return;  // a broken stream will not heal; stop this thread
        }
        robust::bump(out.mutates, muts.size());
        const dyn::SliceJournal::Collapsed final_ops =
            dyn::SliceJournal::collapse(muts);
        journal.ack(final_ops);
        // Read-your-writes: probe the mutated keys plus a random y,
        // all inside this writer's slice, on the same path.
        std::vector<serve::PathQuery> batch;
        for (const auto& [nk, op] : final_ops) {
          batch.push_back({path, nk.second});
        }
        batch.push_back({path, journal.random_key(rng)});
        auto resp = client.dyn_path_batch(col, batch);
        if (!resp.ok()) {
          fail(out.errors, resp.status().to_string());
          return;
        }
        if (resp->write_seq < ack->ack_seq ||
            resp->answers.size() != batch.size()) {
          robust::bump(out.wrong_answers);
        } else {
          for (std::size_t qi = 0; qi < batch.size(); ++qi) {
            const auto& keys = resp->answers[qi].keys;
            for (std::size_t i = 0; i < path.size(); ++i) {
              robust::bump(out.checks);
              const cat::Key served = i < keys.size() ? keys[i] : -1;
              if (journal.check(static_cast<std::uint32_t>(path[i]),
                                batch[qi].y,
                                served) != dyn::JournalCheck::kOk) {
                robust::bump(out.wrong_answers);
              }
            }
          }
        }
        robust::bump(out.reads, batch.size());
        // Thread 0 drives the compaction churn the run must survive.
        if (t == 0 && iter % 8 == 0) {
          auto compacted = client.compact(col);
          if (!compacted.ok()) {
            fail(out.errors, compacted.status().to_string());
            return;
          }
          if (compacted->version > last_version) {
            if (last_version != 0 || compacted->version > 1) {
              robust::bump(out.compactions);
            }
            last_version = compacted->version;
          }
        }
      }
    });
  }
  for (std::thread& th : fleet) {
    th.join();
  }

  robust::judge(out, "every read-your-writes probe matched the journal "
                     "across compaction publishes");
  robust::ReportOptions where;
  where.json = a.json;
  where.json_path = a.json_path;
  where.context = [&](robust::JsonFields& j) {
    j.text("collection", col);
    j.count("threads", a.threads);
  };
  return robust::report("rw", "rw_wire", out, where);
}

// ---- crash-soak -----------------------------------------------------

/// The kill -9 soak's outcome, in the soak kernel's shape
/// (robust/soak.hpp).
struct CrashOutcome : robust::SoakResult {
  std::uint64_t cycles = 0;
  std::uint64_t kills = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t compact_nudges = 0;
  std::uint64_t acked = 0;
  std::uint64_t verified = 0;
  std::uint64_t lost = 0;   ///< acked inserts no longer served
  std::uint64_t wrong = 0;  ///< any other answer the journal refutes
  std::uint64_t verify_errors = 0;
  std::uint64_t storm_errors = 0;
  std::uint64_t recovery_failures = 0;
  bool drain_clean = false;

  void fields(robust::FieldList& v) const {
    v.count("cycles", cycles);
    v.goal("kills", kills, cycles);
    v.count("recoveries", recoveries);
    v.count("compact_nudges", compact_nudges);
    v.count("acked", acked);
    v.count("verified", verified);
    v.wrong("lost", lost);
    v.wrong("wrong", wrong);
    v.failure("verify_errors", verify_errors);
    v.failure("storm_errors", storm_errors);
    v.failure("recovery_failures", recovery_failures);
    v.must("drain_clean", drain_clean,
           "the recovered server did not drain cleanly on SIGTERM");
  }
};

/// Remove the durability files a previous soak left in `dir` (only the
/// shapes the WAL owns — the directory may not exist yet, which is fine).
void wipe_wal_dir(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name == "MANIFEST" || name.starts_with("wal-") ||
        name.starts_with("base-") || name.ends_with(".tmp")) {
      std::filesystem::remove(e.path(), ec);
    }
  }
}

int run_crash_soak(const Args& a) {
  if (a.server_bin.empty() || a.snapshot.empty() || a.tree_path.empty() ||
      a.wal_dir.empty()) {
    std::fprintf(stderr,
                 "error: --op crash-soak needs --server-bin, --snapshot, "
                 "--tree, and --wal-dir\n");
    return 2;
  }
  int rc = 0;
  const std::optional<cat::Tree> loaded = tree_arg(a, rc);
  if (!loaded) {
    return rc;
  }
  const cat::Tree& tree = *loaded;
  if (const coop::Status st = dyn::SliceJournal::check_base(tree); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }

  // Start from a clean slate so every run replays from its own seed.
  wipe_wal_dir(a.wal_dir + "/main");
  const std::string port_file = a.wal_dir + "/port";
  const std::string log_path = a.wal_dir + "/server.log";
  ::unlink(log_path.c_str());
  const auto start_server = [&](pid_t& pid) {
    return cluster::launch_server(
        a.server_bin,
        {"--port", "0", "--dynamic-collection", "main=" + a.snapshot,
         "--wal-dir", a.wal_dir, "--fsync", a.fsync, "--wal-segment-kb", "32",
         "--compact-threshold", "600", "--quota-rate", "1000000",
         "--quota-burst", "65536"},
        port_file, log_path, "main", pid);
  };

  const robust::CrashPlan plan(a.seed);
  constexpr std::size_t kWriters = 2;
  // Per-writer (disjoint-slice) durability oracle, carried across
  // cycles: a key in flight at a kill stays excluded from verification
  // until a later cycle re-acks it.
  std::vector<dyn::SliceJournal> journal;
  for (std::size_t t = 0; t < kWriters; ++t) {
    journal.emplace_back(t);
  }
  CrashOutcome out;
  out.cycles = a.cycles;
  robust::FirstFailure fail(out.first_failure);

  // Verify every acknowledged journal entry through one client, querying
  // the root path of its node: a live key must answer itself (anything
  // above it means the acked insert is LOST), a deleted key must not
  // resurface.
  const auto verify_all = [&](std::uint16_t port) {
    net::ClientOptions copts;
    copts.tenant = 1;
    auto c = net::Client::connect(a.host, port, copts);
    if (!c.ok()) {
      fail(out.verify_errors, c.status().to_string());
      return false;
    }
    for (const dyn::SliceJournal& j : journal) {
      std::vector<std::pair<dyn::SliceJournal::NodeKey, bool>> checks(
          j.entries().begin(), j.entries().end());
      for (std::size_t at = 0; at < checks.size();) {
        const std::size_t n = std::min<std::size_t>(64, checks.size() - at);
        std::vector<serve::PathQuery> batch(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto& [node, key] = checks[at + i].first;
          batch[i] = {serve::root_path(tree, static_cast<cat::NodeId>(node)),
                      key};
        }
        auto resp = c->dyn_path_batch("main", batch);
        if (!resp.ok()) {
          fail(out.verify_errors, resp.status().to_string());
          return false;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const auto& [node, key] = checks[at + i].first;
          // The answer at `node`, the last node of its root path.
          const auto& keys = resp->answers[i].keys;
          const cat::Key served =
              keys.size() == batch[i].path.size() ? keys.back() : -1;
          const dyn::JournalCheck verdict = j.check(node, key, served);
          ++out.verified;
          out.lost += verdict == dyn::JournalCheck::kLost ? 1 : 0;
          out.wrong += verdict == dyn::JournalCheck::kWrong ? 1 : 0;
        }
        at += n;
      }
    }
    return true;
  };

  for (std::uint64_t cycle = 0; cycle < out.cycles; ++cycle) {
    pid_t pid = -1;
    const auto started = start_server(pid);
    if (!started.ok()) {
      fail(out.recovery_failures,
           "cycle " + std::to_string(cycle) + ": server did not come up " +
               "(see " + log_path + "): " + started.status().to_string());
      break;
    }
    const std::uint16_t port = *started;
    if (cycle > 0) {
      ++out.recoveries;
    }

    // Read-your-writes over the restart boundary: everything acked in
    // earlier cycles must still be served before this one adds more.
    if (!verify_all(port)) {
      (void)cluster::kill_proc(pid);
      break;
    }

    // Write storm, then the seeded kill.
    const robust::CrashPoint pt = plan.point_for_cycle(cycle);
    std::atomic<bool> killed{false};
    std::vector<std::thread> fleet;
    for (std::size_t t = 0; t < kWriters; ++t) {
      fleet.emplace_back([&, t, port] {
        std::mt19937_64 rng(robust::chaos_mix(a.seed, /*stream=*/10 + t,
                                              cycle));
        net::ClientOptions copts;
        copts.tenant = 10 + t;
        auto c = net::Client::connect(a.host, port, copts);
        if (!c.ok()) {
          if (!killed.load()) {
            fail(out.storm_errors, c.status().to_string());
          }
          return;
        }
        net::Client client = c.take();
        dyn::SliceJournal& j = journal[t];
        while (!killed.load()) {
          const std::vector<dyn::Mutation> muts =
              j.random_batch(rng, 4, 4, [&] {
                return static_cast<std::uint32_t>(rng() % tree.num_nodes());
              });
          const dyn::SliceJournal::Collapsed final_ops =
              dyn::SliceJournal::collapse(muts);
          // In flight: the kill may land between the server applying the
          // batch and the ack reaching us.
          j.begin(final_ops);
          std::vector<std::vector<std::uint8_t>> blobs;
          for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
            blobs.push_back(dyn::encode_run(r));
          }
          auto ack = client.mutate("main", std::move(blobs));
          if (!ack.ok()) {
            if (!killed.load()) {
              fail(out.storm_errors, ack.status().to_string());
            }
            return;  // keys stay in flight until a later re-ack
          }
          robust::bump(out.acked, final_ops.size());
          j.ack(final_ops);
        }
      });
    }
    std::thread nudger;
    if (pt.compact_first) {
      ++out.compact_nudges;
      nudger = std::thread([&, port] {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            pt.delay_ms - pt.compact_lead_ms));
        net::ClientOptions copts;
        copts.tenant = 99;
        auto c = net::Client::connect(a.host, port, copts);
        if (c.ok()) {
          net::Client client = c.take();
          (void)client.compact("main");  // racing the kill by design
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(pt.delay_ms));
    killed.store(true);
    (void)cluster::kill_proc(pid);
    ++out.kills;
    for (std::thread& th : fleet) {
      th.join();
    }
    if (nudger.joinable()) {
      nudger.join();
    }
    std::size_t determinate = 0, in_flight = 0;
    for (const dyn::SliceJournal& j : journal) {
      determinate += j.entries().size();
      in_flight += j.in_flight();
    }
    std::fprintf(stderr,
                 "crash-soak: cycle %llu/%llu: killed at +%ums%s, "
                 "journal=%zu in_flight=%zu acked=%llu lost=%llu\n",
                 static_cast<unsigned long long>(cycle + 1),
                 static_cast<unsigned long long>(out.cycles), pt.delay_ms,
                 pt.compact_first ? " (compact nudged)" : "", determinate,
                 in_flight, static_cast<unsigned long long>(out.acked),
                 static_cast<unsigned long long>(out.lost));
  }

  // Final restart: full verification, then a graceful SIGTERM drain —
  // the recovered server must also still know how to shut down.
  if (out.recovery_failures == 0 && out.verify_errors == 0) {
    pid_t pid = -1;
    const auto started = start_server(pid);
    if (!started.ok()) {
      fail(out.recovery_failures,
           "final restart: " + started.status().to_string());
    } else {
      ++out.recoveries;
      (void)verify_all(*started);
      out.drain_clean = cluster::terminate_proc(pid);
    }
  }

  robust::judge(out, "every acknowledged write survived every SIGKILL");
  robust::ReportOptions where;
  where.json = a.json;
  where.json_path = a.json_path;
  where.context = [&](robust::JsonFields& j) { j.text("fsync", a.fsync); };
  return robust::report("crash soak", "crash", out, where);
}

// ---- cluster-soak ---------------------------------------------------

int run_cluster_soak_op(const Args& a) {
  if (a.server_bin.empty()) {
    std::fprintf(stderr,
                 "error: --op cluster-soak needs --server-bin PATH "
                 "(the coopserve binary)\n");
    return 2;
  }
  cluster::ClusterSoakOptions opts;
  opts.seed = a.seed;
  opts.duration = std::chrono::milliseconds(a.duration_ms);
  opts.clients = a.threads;
  opts.num_shards = static_cast<std::uint32_t>(a.shards);
  opts.dir = a.cluster_dir;
  opts.coopserve_path = a.server_bin;
  auto run = cluster::run_cluster_soak(opts);
  if (!run.ok()) {
    std::fprintf(stderr, "cluster-soak: setup failed: %s\n",
                 run.status().to_string().c_str());
    return 1;
  }
  robust::ReportOptions where;
  where.json = a.json;
  where.json_path = a.json_path;
  return robust::report("cluster-soak", "cluster-soak", run.value(), where);
}

int run_admin(const Args& a) {
  net::ClientOptions copts;
  copts.tenant = a.tenant;
  auto c = net::Client::connect(a.host, a.port, copts);
  if (!c.ok()) {
    std::fprintf(stderr, "coopload: %s\n",
                 c.status().to_string().c_str());
    return 1;
  }
  net::Client client = c.take();
  if (a.op == "metrics") {
    auto m = client.metrics();
    if (!m.ok()) {
      std::fprintf(stderr, "coopload: %s\n",
                   m.status().to_string().c_str());
      return 1;
    }
    std::fputs(m->c_str(), stdout);
    return 0;
  }
  if (a.op == "health") {
    auto h = client.health();
    if (!h.ok()) {
      std::fprintf(stderr, "coopload: %s\n",
                   h.status().to_string().c_str());
      return 1;
    }
    std::printf("draining: %s\n", h->draining != 0 ? "yes" : "no");
    for (const auto& col : h->collections) {
      std::printf("collection %s: version %llu, %s\n", col.name.c_str(),
                  static_cast<unsigned long long>(col.version),
                  serve::to_string(
                      static_cast<serve::HealthState>(col.health)));
    }
    return 0;
  }
  if (a.op == "drain") {
    if (const auto st = client.drain(); !st.ok()) {
      std::fprintf(stderr, "coopload: %s\n", st.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "coopload: drain acknowledged\n");
    return 0;
  }
  if (a.collections.size() != 1) {
    std::fprintf(stderr, "error: --op %s needs exactly one --collection\n",
                 a.op.c_str());
    return 2;
  }
  const std::string& col = a.collections.front();
  if (a.op == "compact") {
    auto r = client.compact(col);
    if (!r.ok()) {
      std::fprintf(stderr, "coopload: %s\n",
                   r.status().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "coopload: compacted '%s' -> version %llu, watermark %llu\n",
                 col.c_str(), static_cast<unsigned long long>(r->version),
                 static_cast<unsigned long long>(r->watermark));
    return 0;
  }
  if (a.op == "unload") {
    if (const auto st = client.unload(col); !st.ok()) {
      std::fprintf(stderr, "coopload: %s\n", st.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "coopload: unloaded '%s'\n", col.c_str());
    return 0;
  }
  if (a.snapshot.empty()) {
    std::fprintf(stderr, "error: --op %s needs --snapshot FILE.snap\n",
                 a.op.c_str());
    return 2;
  }
  auto v = a.op == "load" ? client.load(col, a.snapshot)
                          : client.swap(col, a.snapshot);
  if (!v.ok()) {
    std::fprintf(stderr, "coopload: %s\n",
                 v.status().to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "coopload: %s '%s' -> version %llu\n",
               a.op.c_str(), col.c_str(),
               static_cast<unsigned long long>(v.value()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  const flags::Table table = {
      {"--host", flags::text(a.host)},
      {"--port", flags::number(a.port, 1, 65535)},
      {"--port-file",
       [&](const char* x) {
         std::ifstream pf(x);
         std::string port;
         return static_cast<bool>(pf >> port) &&
                flags::number(a.port, 1, 65535)(port.c_str());
       }},
      {"--op", flags::text(a.op)},
      {"--collection",
       [&](const char* x) {
         a.collections.emplace_back(x);
         return true;
       }},
      {"--snapshot", flags::text(a.snapshot)},
      {"--tree", flags::text(a.tree_path)},
      {"--threads", flags::number(a.threads, 1, 256)},
      {"--duration-ms", flags::number(a.duration_ms, 1)},
      {"--batch", flags::number(a.batch, 1, 65536)},
      {"--tenant", flags::number(a.tenant)},
      {"--deadline-ns", flags::number(a.deadline_ns)},
      {"--seed", flags::number(a.seed)},
      {"--server-bin", flags::text(a.server_bin)},
      {"--wal-dir", flags::text(a.wal_dir)},
      {"--cycles", flags::number(a.cycles, 1, 100000)},
      {"--fsync",
       [&](const char* x) {
         a.fsync = x;
         return a.fsync == "every-ack" || a.fsync == "interval" ||
                a.fsync == "none";
       }},
      {"--label", flags::text(a.label)},
      {"--dir", flags::text(a.cluster_dir)},
      {"--shards", flags::number(a.shards, 1, 64)},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      a.check = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      a.json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      a.json = true;
      a.json_path = argv[i] + 7;
    } else if (!flags::take(table, argc, argv, i)) {
      return usage();
    }
  }
  if (a.op == "crash-soak") {
    return run_crash_soak(a);  // spawns its own server; no --port
  }
  if (a.op == "cluster-soak") {
    return run_cluster_soak_op(a);  // spawns its own fleet; no --port
  }
  if (a.port == 0) {
    std::fprintf(stderr, "error: --port or --port-file is required\n");
    return usage();
  }
  if (a.op == "bench") {
    return run_bench(a);
  }
  if (a.op == "rw") {
    return run_rw(a);
  }
  if (a.op == "metrics" || a.op == "health" || a.op == "drain" ||
      a.op == "load" || a.op == "swap" || a.op == "unload" ||
      a.op == "compact") {
    return run_admin(a);
  }
  std::fprintf(stderr, "error: unknown --op '%s'\n", a.op.c_str());
  return usage();
}
