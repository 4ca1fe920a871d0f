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
// rw drives the end-to-end write path against a *dynamic* collection
// (coopserve --dynamic-collection): --threads writer/reader clients
// each own a disjoint key slice above every base key, apply a seeded
// mutation stream with MUTATE, and immediately verify read-your-writes
// with DYN_PATH_BATCH against a local journal of their own slice
// (exact within the slice — other writers' keys cannot fall inside
// it).  Thread 0 periodically issues COMPACT; the run passes only with
// zero wrong answers, zero request errors, and at least three
// compaction publishes observed over the wire.
//
// crash-soak is the kill -9 supervisor (DESIGN.md §14): it repeatedly
// spawns a durable coopserve (--server-bin, WAL under --wal-dir), aims
// a two-writer MUTATE storm at it, SIGKILLs the server at a seeded
// point mid-storm (robust::CrashPlan — every third cycle provokes a
// compaction first so kills land mid-spool / mid-manifest-commit),
// restarts it, and verifies every *acknowledged* write is still
// served.  Writes a writer is unsure about (sent, never acked) are
// held indeterminate and excluded until re-acked — the durability
// contract covers acks, nothing else.  Passes only with zero lost
// acks, zero wrong answers, zero recovery failures, and a clean final
// drain.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/tree.hpp"
#include "cluster/child_process.hpp"
#include "cluster/cluster_soak.hpp"
#include "dyn/delta.hpp"
#include "flags.hpp"
#include "net/client.hpp"
#include "robust/chaos.hpp"
#include "robust/loaders.hpp"
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

struct BenchRow {
  std::string mode;
  std::size_t threads = 0;
  double qps = 0.0;
  std::uint64_t p99_ns = 0;
  std::uint64_t answered = 0;
  std::uint64_t sheds = 0;
};

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
    std::string msg;
    for (const char c : st.to_string()) {
      if (c == '"' || c == '\\') {
        msg += '\\';
      }
      msg += c == '\n' ? ' ' : c;
    }
    char doc[768];
    std::snprintf(doc, sizeof(doc),
                  "{\"bench\":\"%s\",\"rows\":[],\"error\":{\"phase\":"
                  "\"%s\",\"code\":%d,\"message\":\"%s\"}}\n",
                  a.label.c_str(), phase,
                  static_cast<int>(st.code()), msg.c_str());
    if (a.json_path.empty()) {
      std::fputs(doc, stdout);
    } else {
      std::FILE* f = std::fopen(a.json_path.c_str(), "w");
      if (f != nullptr) {
        std::fputs(doc, f);
        std::fclose(f);
      }
    }
  }
  return 1;
}

int run_bench(const Args& a) {
  if (a.tree_path.empty()) {
    std::fprintf(stderr, "error: --op bench needs --tree tree.txt\n");
    return 2;
  }
  std::ifstream in(a.tree_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", a.tree_path.c_str());
    return 1;
  }
  auto loaded = robust::load_tree(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", a.tree_path.c_str(),
                 loaded.status().to_string().c_str());
    return 1;
  }
  const cat::Tree tree = loaded.take();
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

  std::vector<BenchRow> rows;
  std::uint64_t mismatches = 0, errors = 0;
  std::string first_error;
  for (const std::string& col : cols) {
    std::atomic<std::uint64_t> answered{0}, sheds{0}, bad{0}, errs{0};
    std::mutex err_mu;
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
          errs.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error.empty()) {
            first_error = c.status().to_string();
          }
          return;
        }
        net::Client client = c.take();
        std::vector<serve::PathQuery> batch(a.batch);
        while (Clock::now() < until) {
          for (serve::PathQuery& q : batch) {
            std::vector<cat::NodeId> path{tree.root()};
            while (!tree.is_leaf(path.back())) {
              const auto kids = tree.children(path.back());
              path.push_back(kids[rng() % kids.size()]);
            }
            q.path = std::move(path);
            q.y = static_cast<cat::Key>(rng() % 1'000'000'000);
          }
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
              for (std::size_t qi = 0; qi < batch.size(); ++qi) {
                const auto& ans = resp->answers[qi];
                for (std::size_t i = 0; i < batch[qi].path.size(); ++i) {
                  if (i >= ans.proper_index.size() ||
                      ans.proper_index[i] !=
                          tree.catalog(batch[qi].path[i]).find(
                              batch[qi].y)) {
                    bad.fetch_add(1, std::memory_order_relaxed);
                    break;
                  }
                }
              }
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
            errs.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(err_mu);
            if (first_error.empty()) {
              first_error = resp.status().to_string();
            }
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
    BenchRow row;
    row.mode = "paths:" + col;
    row.threads = a.threads;
    row.answered = answered.load();
    row.sheds = sheds.load();
    row.qps = secs > 0 ? static_cast<double>(row.answered) / secs : 0.0;
    row.p99_ns =
        merged.empty() ? 0 : merged[merged.size() * 99 / 100 ==
                                            merged.size()
                                        ? merged.size() - 1
                                        : merged.size() * 99 / 100];
    rows.push_back(row);
    mismatches += bad.load();
    errors += errs.load();
    std::fprintf(stderr,
                 "%-16s threads=%zu qps=%.0f p99=%.3fms answered=%llu "
                 "sheds=%llu\n",
                 row.mode.c_str(), row.threads, row.qps,
                 static_cast<double>(row.p99_ns) / 1e6,
                 static_cast<unsigned long long>(row.answered),
                 static_cast<unsigned long long>(row.sheds));
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
    std::string doc = "{\"bench\":\"" + a.label + "\",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"mode\":\"%s\",\"threads\":%zu,\"qps\":%.1f,"
                    "\"p99_ns\":%llu,\"sheds\":%llu}",
                    i == 0 ? "" : ",", rows[i].mode.c_str(),
                    rows[i].threads, rows[i].qps,
                    static_cast<unsigned long long>(rows[i].p99_ns),
                    static_cast<unsigned long long>(rows[i].sheds));
      doc += buf;
    }
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  "],\"checked\":%s,\"mismatches\":%llu,\"errors\":%llu}",
                  a.check ? "true" : "false",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(errors));
    doc += tail;
    doc += "\n";
    if (a.json_path.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(a.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     a.json_path.c_str());
        return 1;
      }
      std::fputs(doc.c_str(), f);
      std::fclose(f);
      std::fprintf(stderr, "coopload: wrote %s\n", a.json_path.c_str());
    }
  }
  return (mismatches == 0 && errors == 0) ? 0 : 1;
}

/// Writer key slices sit above every base key so each thread's local
/// journal is an exact oracle for queries inside its own slice.
constexpr cat::Key kRwSliceBase = 2'000'000'000;
constexpr cat::Key kRwSliceSpan = 1'000'000;

int run_rw(const Args& a) {
  if (a.tree_path.empty()) {
    std::fprintf(stderr, "error: --op rw needs --tree tree.txt\n");
    return 2;
  }
  std::ifstream in(a.tree_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", a.tree_path.c_str());
    return 1;
  }
  auto loaded = robust::load_tree(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", a.tree_path.c_str(),
                 loaded.status().to_string().c_str());
    return 1;
  }
  const cat::Tree tree = loaded.take();
  for (cat::NodeId v = 0; v < static_cast<cat::NodeId>(tree.num_nodes());
       ++v) {
    for (const cat::Key k : tree.catalog(v).keys()) {
      if (k != cat::kInfinity && k >= kRwSliceBase) {
        std::fprintf(stderr,
                     "error: base key %lld >= writer slice base %lld; the "
                     "rw oracle needs every base key below the slices\n",
                     static_cast<long long>(k),
                     static_cast<long long>(kRwSliceBase));
        return 1;
      }
    }
  }
  const std::string col =
      a.collections.empty() ? "main" : a.collections.front();

  std::atomic<std::uint64_t> mutates{0}, reads{0}, wrong{0}, errors{0};
  std::atomic<std::uint64_t> ryw_checks{0}, compactions{0};
  std::mutex err_mu;
  std::string first_error;
  const auto fail = [&](const coop::Status& st) {
    errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(err_mu);
    if (first_error.empty()) {
      first_error = st.to_string();
    }
  };

  std::vector<std::thread> fleet;
  const auto until = Clock::now() + std::chrono::milliseconds(a.duration_ms);
  for (std::size_t t = 0; t < a.threads; ++t) {
    fleet.emplace_back([&, t] {
      std::mt19937_64 rng(a.seed ^ (0xD15C0ull * (t + 1)));
      net::ClientOptions copts;
      copts.tenant = a.tenant + t;
      auto c = net::Client::connect(a.host, a.port, copts);
      if (!c.ok()) {
        fail(c.status());
        return;
      }
      net::Client client = c.take();
      const cat::Key slice_lo =
          kRwSliceBase + static_cast<cat::Key>(t) * kRwSliceSpan;
      const cat::Key slice_hi = slice_lo + kRwSliceSpan;
      // node -> this writer's live keys, all inside [slice_lo, slice_hi).
      std::map<std::uint32_t, std::set<cat::Key>> journal;
      std::uint64_t last_version = 0;
      std::uint64_t iter = 0;
      while (Clock::now() < until) {
        ++iter;
        // One root-to-leaf path; mutate a handful of its nodes.
        std::vector<cat::NodeId> path{tree.root()};
        while (!tree.is_leaf(path.back())) {
          const auto kids = tree.children(path.back());
          path.push_back(kids[rng() % kids.size()]);
        }
        std::vector<dyn::Mutation> muts;
        for (int i = 0; i < 6; ++i) {
          dyn::Mutation m;
          m.node =
              static_cast<std::uint32_t>(path[rng() % path.size()]);
          m.key = slice_lo +
                  static_cast<cat::Key>(rng() %
                                        static_cast<std::uint64_t>(
                                            kRwSliceSpan));
          m.op = rng() % 3 == 0 ? dyn::Op::kDelete : dyn::Op::kInsert;
          muts.push_back(m);
        }
        std::vector<std::vector<std::uint8_t>> blobs;
        for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
          blobs.push_back(dyn::encode_run(r));
        }
        auto ack = client.mutate(col, std::move(blobs));
        if (!ack.ok()) {
          fail(ack.status());
          return;  // a broken stream will not heal; stop this thread
        }
        mutates.fetch_add(muts.size(), std::memory_order_relaxed);
        // Mirror into the journal with the same last-op-wins collapse
        // the run grouping applied.
        std::map<std::pair<std::uint32_t, cat::Key>, dyn::Op> final_ops;
        for (const dyn::Mutation& m : muts) {
          final_ops[{m.node, m.key}] = m.op;
        }
        for (const auto& [nk, op] : final_ops) {
          if (op == dyn::Op::kInsert) {
            journal[nk.first].insert(nk.second);
          } else {
            journal[nk.first].erase(nk.second);
          }
        }
        // Read-your-writes: probe the mutated keys plus a random y,
        // all inside this writer's slice, on the same path.
        std::vector<serve::PathQuery> batch;
        for (const auto& [nk, op] : final_ops) {
          serve::PathQuery q;
          q.path = path;
          q.y = nk.second;
          batch.push_back(std::move(q));
        }
        serve::PathQuery probe;
        probe.path = path;
        probe.y = slice_lo +
                  static_cast<cat::Key>(
                      rng() % static_cast<std::uint64_t>(kRwSliceSpan));
        batch.push_back(std::move(probe));
        auto resp = client.dyn_path_batch(col, batch);
        if (!resp.ok()) {
          fail(resp.status());
          return;
        }
        if (resp->write_seq < ack->ack_seq ||
            resp->answers.size() != batch.size()) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        } else {
          for (std::size_t qi = 0; qi < batch.size(); ++qi) {
            const auto& keys = resp->answers[qi].keys;
            for (std::size_t i = 0; i < path.size(); ++i) {
              const auto node = static_cast<std::uint32_t>(path[i]);
              const cat::Key y = batch[qi].y;
              const cat::Key ans =
                  i < keys.size() ? keys[i] : cat::Key{-1};
              ryw_checks.fetch_add(1, std::memory_order_relaxed);
              const auto jt = journal.find(node);
              const auto* mine =
                  jt == journal.end() ? nullptr : &jt->second;
              const auto it = mine == nullptr ? std::set<cat::Key>::
                                                    const_iterator{}
                                              : mine->lower_bound(y);
              if (mine != nullptr && it != mine->end()) {
                // This writer's successor is the global one: lower
                // slices are < y, higher slices and +inf are above it.
                if (ans != *it) {
                  wrong.fetch_add(1, std::memory_order_relaxed);
                }
              } else if (ans < slice_hi) {
                // Nothing of ours >= y: the answer must come from a
                // higher slice or be +inf — never inside our slice.
                wrong.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
        reads.fetch_add(batch.size(), std::memory_order_relaxed);
        // Thread 0 drives the compaction churn the run must survive.
        if (t == 0 && iter % 8 == 0) {
          auto compacted = client.compact(col);
          if (!compacted.ok()) {
            fail(compacted.status());
            return;
          }
          if (compacted->version > last_version) {
            if (last_version != 0 || compacted->version > 1) {
              compactions.fetch_add(1, std::memory_order_relaxed);
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

  const bool goals_met =
      wrong.load() == 0 && errors.load() == 0 && compactions.load() >= 3;
  std::fprintf(stderr,
               "rw:%-12s threads=%zu mutates=%llu reads=%llu checks=%llu "
               "wrong=%llu errors=%llu compactions=%llu -> %s\n",
               col.c_str(), a.threads,
               static_cast<unsigned long long>(mutates.load()),
               static_cast<unsigned long long>(reads.load()),
               static_cast<unsigned long long>(ryw_checks.load()),
               static_cast<unsigned long long>(wrong.load()),
               static_cast<unsigned long long>(errors.load()),
               static_cast<unsigned long long>(compactions.load()),
               goals_met ? "OK" : "FAILED");
  if (errors.load() > 0) {
    std::fprintf(stderr, "coopload: first error: %s\n",
                 first_error.c_str());
  }
  if (a.json) {
    char doc[512];
    std::snprintf(
        doc, sizeof(doc),
        "{\"soak\":\"rw_wire\",\"collection\":\"%s\",\"threads\":%zu,"
        "\"mutates\":%llu,\"reads\":%llu,\"checks\":%llu,"
        "\"wrong_answers\":%llu,\"errors\":%llu,\"compactions\":%llu,"
        "\"goals_met\":%s}\n",
        col.c_str(), a.threads,
        static_cast<unsigned long long>(mutates.load()),
        static_cast<unsigned long long>(reads.load()),
        static_cast<unsigned long long>(ryw_checks.load()),
        static_cast<unsigned long long>(wrong.load()),
        static_cast<unsigned long long>(errors.load()),
        static_cast<unsigned long long>(compactions.load()),
        goals_met ? "true" : "false");
    if (a.json_path.empty()) {
      std::fputs(doc, stdout);
    } else {
      std::FILE* f = std::fopen(a.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     a.json_path.c_str());
        return 1;
      }
      std::fputs(doc, f);
      std::fclose(f);
      std::fprintf(stderr, "coopload: wrote %s\n", a.json_path.c_str());
    }
  }
  return goals_met ? 0 : 1;
}

// ---- crash-soak -----------------------------------------------------

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

/// Launch the durable coopserve under test and wait for its port; a
/// server that dies while booting (recovery refused the directory?) or
/// never comes up leaves `pid` at -1 and returns 0.
std::uint16_t start_server(const Args& a, const std::string& port_file,
                           const std::string& log_path, pid_t& pid) {
  ::unlink(port_file.c_str());
  auto spawned = cluster::spawn(
      a.server_bin,
      {"--port", "0", "--port-file", port_file, "--dynamic-collection",
       "main=" + a.snapshot, "--wal-dir", a.wal_dir, "--fsync", a.fsync,
       "--wal-segment-kb", "32", "--compact-threshold", "600",
       "--quota-rate", "1000000", "--quota-burst", "65536"},
      log_path);
  pid = spawned.ok() ? *spawned : -1;
  if (pid < 0) {
    return 0;
  }
  auto port = cluster::read_port_file(
      port_file, std::chrono::steady_clock::now() + std::chrono::seconds(15),
      pid);
  if (!port.ok()) {
    (void)cluster::kill_proc(pid);
    return 0;
  }
  return *port;
}

int run_crash_soak(const Args& a) {
  if (a.server_bin.empty() || a.snapshot.empty() || a.tree_path.empty() ||
      a.wal_dir.empty()) {
    std::fprintf(stderr,
                 "error: --op crash-soak needs --server-bin, --snapshot, "
                 "--tree, and --wal-dir\n");
    return 2;
  }
  std::ifstream in(a.tree_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", a.tree_path.c_str());
    return 1;
  }
  auto loaded = robust::load_tree(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", a.tree_path.c_str(),
                 loaded.status().to_string().c_str());
    return 1;
  }
  const cat::Tree tree = loaded.take();

  // One fixed root-to-leaf verification path through every node: up to
  // the root via a parent map, then first-child down to a leaf.  The
  // journal check for (node, key) queries this path and reads the
  // answer at the node's depth.
  const std::size_t num_nodes = tree.num_nodes();
  std::vector<cat::NodeId> parent(num_nodes, -1);
  {
    std::vector<cat::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const cat::NodeId v = stack.back();
      stack.pop_back();
      if (!tree.is_leaf(v)) {
        for (const cat::NodeId c : tree.children(v)) {
          parent[static_cast<std::size_t>(c)] = v;
          stack.push_back(c);
        }
      }
    }
  }
  std::vector<std::vector<cat::NodeId>> path_of(num_nodes);
  std::vector<std::size_t> depth_of(num_nodes, 0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    std::vector<cat::NodeId> up;
    for (cat::NodeId w = static_cast<cat::NodeId>(v); w != -1;
         w = parent[static_cast<std::size_t>(w)]) {
      up.push_back(w);
    }
    std::reverse(up.begin(), up.end());
    depth_of[v] = up.size() - 1;
    cat::NodeId w = static_cast<cat::NodeId>(v);
    while (!tree.is_leaf(w)) {
      w = tree.children(w).front();
      up.push_back(w);
    }
    path_of[v] = std::move(up);
  }

  // Start from a clean slate so every run replays from its own seed.
  wipe_wal_dir(a.wal_dir + "/main");
  const std::string port_file = a.wal_dir + "/port";
  const std::string log_path = a.wal_dir + "/server.log";
  ::unlink(log_path.c_str());

  const robust::CrashPlan plan(a.seed);
  constexpr std::size_t kWriters = 2;
  using NodeKey = std::pair<std::uint32_t, cat::Key>;
  // Per-writer (disjoint-slice) durability oracle, carried across
  // cycles: determinate entries are acked (live or deleted);
  // indeterminate keys were in flight at a kill and stay excluded from
  // verification until a later cycle re-acks them.
  std::vector<std::map<NodeKey, bool>> journal(kWriters);
  std::vector<std::set<NodeKey>> indeterminate(kWriters);

  std::atomic<std::uint64_t> acked_total{0}, storm_errors{0};
  std::uint64_t verified_total = 0;
  std::uint64_t lost = 0, wrong = 0;
  std::uint64_t verify_errors = 0, recovery_failures = 0;
  std::uint64_t kills = 0, recoveries = 0, compact_nudges = 0;
  std::mutex err_mu;
  std::string first_error;
  const auto note_first = [&](const coop::Status& st) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (first_error.empty()) {
      first_error = st.to_string();
    }
  };

  // Verify every determinate journal entry through one client: a live
  // key must answer itself (anything above it means the acked insert is
  // LOST), a deleted key must not resurface.
  const auto verify_all = [&](net::Client& client) -> bool {
    std::vector<std::pair<NodeKey, bool>> checks;
    for (std::size_t t = 0; t < kWriters; ++t) {
      for (const auto& [nk, live] : journal[t]) {
        checks.emplace_back(nk, live);
      }
    }
    for (std::size_t at = 0; at < checks.size();) {
      const std::size_t n = std::min<std::size_t>(64, checks.size() - at);
      std::vector<serve::PathQuery> batch(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [nk, live] = checks[at + i];
        batch[i].path = path_of[nk.first];
        batch[i].y = nk.second;
      }
      auto resp = client.dyn_path_batch("main", batch);
      if (!resp.ok()) {
        ++verify_errors;
        note_first(resp.status());
        return false;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [nk, live] = checks[at + i];
        const auto& keys = resp->answers[i].keys;
        const cat::Key ans = depth_of[nk.first] < keys.size()
                                 ? keys[depth_of[nk.first]]
                                 : cat::Key{-1};
        ++verified_total;
        if (live) {
          if (ans > nk.second) {
            ++lost;  // acked insert vanished: the durability bug
          } else if (ans != nk.second) {
            ++wrong;
          }
        } else if (ans == nk.second) {
          ++wrong;  // acked delete resurfaced
        } else if (ans < nk.second) {
          ++wrong;
        }
      }
      at += n;
    }
    return true;
  };

  const std::uint64_t total_cycles = a.cycles;
  for (std::uint64_t cycle = 0; cycle < total_cycles; ++cycle) {
    pid_t pid = -1;
    const std::uint16_t port = start_server(a, port_file, log_path, pid);
    if (port == 0) {
      ++recovery_failures;
      std::fprintf(stderr,
                   "crash-soak: cycle %llu: server did not come up "
                   "(recovery failure? see %s)\n",
                   static_cast<unsigned long long>(cycle),
                   log_path.c_str());
      break;
    }
    if (cycle > 0) {
      ++recoveries;
    }

    // Read-your-writes over the restart boundary: everything acked in
    // earlier cycles must still be served before this one adds more.
    {
      net::ClientOptions copts;
      copts.tenant = 1;
      auto c = net::Client::connect(a.host, port, copts);
      if (!c.ok()) {
        ++verify_errors;
        note_first(c.status());
        (void)cluster::kill_proc(pid);
        break;
      }
      net::Client client = c.take();
      if (!verify_all(client)) {
        (void)cluster::kill_proc(pid);
        break;
      }
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
            storm_errors.fetch_add(1, std::memory_order_relaxed);
            note_first(c.status());
          }
          return;
        }
        net::Client client = c.take();
        auto& j = journal[t];
        auto& ind = indeterminate[t];
        const cat::Key slice_lo =
            kRwSliceBase + static_cast<cat::Key>(t) * kRwSliceSpan;
        while (!killed.load()) {
          std::vector<dyn::Mutation> muts;
          for (int i = 0; i < 4; ++i) {
            dyn::Mutation m;
            m.node = static_cast<std::uint32_t>(rng() % num_nodes);
            m.key = slice_lo +
                    static_cast<cat::Key>(
                        rng() % static_cast<std::uint64_t>(kRwSliceSpan));
            m.op = rng() % 4 == 0 ? dyn::Op::kDelete : dyn::Op::kInsert;
            muts.push_back(m);
          }
          std::map<NodeKey, dyn::Op> final_ops;
          for (const dyn::Mutation& m : muts) {
            final_ops[{m.node, m.key}] = m.op;
          }
          // In flight = indeterminate: the kill may land between the
          // server applying the batch and the ack reaching us.
          for (const auto& [nk, op] : final_ops) {
            ind.insert(nk);
            j.erase(nk);
          }
          std::vector<std::vector<std::uint8_t>> blobs;
          for (const dyn::Run& r : dyn::runs_from_mutations(muts)) {
            blobs.push_back(dyn::encode_run(r));
          }
          auto ack = client.mutate("main", std::move(blobs));
          if (!ack.ok()) {
            if (!killed.load()) {
              storm_errors.fetch_add(1, std::memory_order_relaxed);
              note_first(ack.status());
            }
            return;  // keys stay indeterminate until a later re-ack
          }
          acked_total.fetch_add(final_ops.size(),
                                std::memory_order_relaxed);
          for (const auto& [nk, op] : final_ops) {
            j[nk] = op == dyn::Op::kInsert;
            ind.erase(nk);
          }
        }
      });
    }
    std::thread nudger;
    if (pt.compact_first) {
      ++compact_nudges;
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
    ++kills;
    for (std::thread& th : fleet) {
      th.join();
    }
    if (nudger.joinable()) {
      nudger.join();
    }
    std::size_t determinate = 0, in_flight = 0;
    for (std::size_t t = 0; t < kWriters; ++t) {
      determinate += journal[t].size();
      in_flight += indeterminate[t].size();
    }
    std::fprintf(stderr,
                 "crash-soak: cycle %llu/%llu: killed at +%ums%s, "
                 "journal=%zu in_flight=%zu acked=%llu lost=%llu\n",
                 static_cast<unsigned long long>(cycle + 1),
                 static_cast<unsigned long long>(total_cycles),
                 pt.delay_ms, pt.compact_first ? " (compact nudged)" : "",
                 determinate, in_flight,
                 static_cast<unsigned long long>(acked_total.load()),
                 static_cast<unsigned long long>(lost));
  }

  // Final restart: full verification, then a graceful SIGTERM drain —
  // the recovered server must also still know how to shut down.
  bool drain_clean = false;
  if (recovery_failures == 0 && verify_errors == 0) {
    pid_t pid = -1;
    const std::uint16_t port = start_server(a, port_file, log_path, pid);
    if (port == 0) {
      ++recovery_failures;
    } else {
      ++recoveries;
      net::ClientOptions copts;
      copts.tenant = 1;
      auto c = net::Client::connect(a.host, port, copts);
      if (!c.ok()) {
        ++verify_errors;
        note_first(c.status());
      } else {
        net::Client client = c.take();
        (void)verify_all(client);
      }
      drain_clean = cluster::terminate_proc(pid);
    }
  }

  const bool goals_met = kills == total_cycles && lost == 0 &&
                         wrong == 0 && verify_errors == 0 &&
                         storm_errors.load() == 0 &&
                         recovery_failures == 0 && drain_clean;
  std::fprintf(stderr,
               "crash soak %s: cycles=%llu kills=%llu recoveries=%llu "
               "compact_nudges=%llu acked=%llu verified=%llu lost=%llu "
               "wrong=%llu errors=%llu/%llu recovery_failures=%llu "
               "drain_clean=%s (fsync=%s)\n",
               goals_met ? "OK" : "FAILED",
               static_cast<unsigned long long>(total_cycles),
               static_cast<unsigned long long>(kills),
               static_cast<unsigned long long>(recoveries),
               static_cast<unsigned long long>(compact_nudges),
               static_cast<unsigned long long>(acked_total.load()),
               static_cast<unsigned long long>(verified_total),
               static_cast<unsigned long long>(lost),
               static_cast<unsigned long long>(wrong),
               static_cast<unsigned long long>(verify_errors),
               static_cast<unsigned long long>(storm_errors.load()),
               static_cast<unsigned long long>(recovery_failures),
               drain_clean ? "yes" : "no", a.fsync.c_str());
  if (!first_error.empty()) {
    std::fprintf(stderr, "crash-soak: first error: %s\n",
                 first_error.c_str());
  }
  if (a.json) {
    char doc[512];
    std::snprintf(
        doc, sizeof(doc),
        "{\"soak\":\"crash\",\"cycles\":%llu,\"kills\":%llu,"
        "\"recoveries\":%llu,\"compact_nudges\":%llu,\"acked\":%llu,"
        "\"verified\":%llu,\"lost\":%llu,\"wrong\":%llu,"
        "\"verify_errors\":%llu,\"storm_errors\":%llu,"
        "\"recovery_failures\":%llu,\"drain_clean\":%s,\"fsync\":\"%s\","
        "\"goals_met\":%s}\n",
        static_cast<unsigned long long>(total_cycles),
        static_cast<unsigned long long>(kills),
        static_cast<unsigned long long>(recoveries),
        static_cast<unsigned long long>(compact_nudges),
        static_cast<unsigned long long>(acked_total.load()),
        static_cast<unsigned long long>(verified_total),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(wrong),
        static_cast<unsigned long long>(verify_errors),
        static_cast<unsigned long long>(storm_errors.load()),
        static_cast<unsigned long long>(recovery_failures),
        drain_clean ? "true" : "false", a.fsync.c_str(),
        goals_met ? "true" : "false");
    if (a.json_path.empty()) {
      std::fputs(doc, stdout);
    } else {
      std::FILE* f = std::fopen(a.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     a.json_path.c_str());
        return 1;
      }
      std::fputs(doc, f);
      std::fclose(f);
      std::fprintf(stderr, "coopload: wrote %s\n", a.json_path.c_str());
    }
  }
  return goals_met ? 0 : 1;
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
  const cluster::ClusterSoakOutcome& o = run.value();
  std::fprintf(stderr, "cluster-soak: %s\n", o.verdict.c_str());
  if (!o.first_failure.empty()) {
    std::fprintf(stderr, "cluster-soak: first failure: %s\n",
                 o.first_failure.c_str());
  }
  if (a.json) {
    const auto u = [](std::uint64_t x) {
      return static_cast<unsigned long long>(x);
    };
    char doc[1024];
    std::snprintf(
        doc, sizeof(doc),
        "{\"bench\":\"cluster-soak\",\"goals_met\":%s,"
        "\"batches\":%llu,\"answered\":%llu,\"wrong_answers\":%llu,"
        "\"typed_sheds\":%llu,\"untyped_failures\":%llu,"
        "\"answered_after_revive\":%llu,\"kills\":%llu,"
        "\"resurrections\":%llu,\"swaps\":%llu,"
        "\"follower_catchups\":%llu,\"follower_version\":%llu,"
        "\"hedged_retries\":%llu,\"breaker_trips\":%llu,"
        "\"router_sheds\":%llu,\"final_sweep_ok\":%s}\n",
        o.goals_met ? "true" : "false", u(o.batches), u(o.answered),
        u(o.wrong_answers), u(o.typed_sheds), u(o.untyped_failures),
        u(o.answered_after_revive), u(o.kills), u(o.resurrections),
        u(o.swaps), u(o.follower_catchups), u(o.follower_version),
        u(o.hedged_retries), u(o.breaker_trips), u(o.router_sheds),
        o.final_sweep_ok ? "true" : "false");
    if (a.json_path.empty()) {
      std::fputs(doc, stdout);
    } else {
      std::FILE* f = std::fopen(a.json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     a.json_path.c_str());
        return 1;
      }
      std::fputs(doc, f);
      std::fclose(f);
      std::fprintf(stderr, "coopload: wrote %s\n", a.json_path.c_str());
    }
  }
  return o.goals_met ? 0 : 1;
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
