// perfbench_loadgen: one run of one workload of the repository benchmark
// (see README.md).  Generates the seeded inputs and their expected
// answers, sets up real coopserve processes from them, drives closed-loop
// readers (and, in rw_mixed, a paced writer) over the wire from this one
// process, checks every answer, and writes the run's measurements as JSON
// to --out.  With --trace 1 it instead runs the same workload untraced
// and traced, scrapes the servers' METRICS around the traced window,
// times the program's public module calls in-process on the same inputs,
// and writes its spans to --spans.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//       --bin-dir DIR --work-dir DIR --out FILE [--spans FILE]
//       [--writer-rate R]
//
// Exit status: 0 when every answer matched, 1 on a mismatch, 2 on a
// set-up or usage error.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "cluster/partition.hpp"
#include "dyn/compactor.hpp"
#include "dyn/overlay.hpp"
#include "dyn/wal.hpp"
#include "fc/build.hpp"
#include "gen.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "proc.hpp"
#include "procfs.hpp"
#include "scrape.hpp"
#include "serve/flat_cascade.hpp"
#include "serve/frontend.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/registry.hpp"
#include "snapshot/snapshot.hpp"
#include "stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb = perfbench;
using pb::Clock;
namespace fs = std::filesystem;

namespace {

// ---- workloads -------------------------------------------------------

enum class Kind { kStatic, kDynamic, kRouted };

struct Workload {
  const char* name;
  Kind kind;
  std::uint32_t height;   ///< balanced binary tree, leaves at this depth
  std::size_t entries;    ///< catalog entries over the whole tree
  std::size_t batch;      ///< queries per read frame
  std::size_t readers;    ///< closed-loop reader connections
  std::size_t workers;    ///< coopserve --workers (each server)
  std::size_t engine;     ///< coopserve --engine-threads (each server)
  int setup_reps;         ///< set-ups per run; setup_s is their median
};

// Thread budget on a 4-core host: at most `readers` (+1 writer) frames are
// in flight, and each occupies one client, IO, worker or engine thread at
// a time, so busy threads stay within nproc (README.md, "Threads").
constexpr Workload kWorkloads[] = {
    {"lookup_b1", Kind::kStatic, 8, std::size_t{1} << 14, 1, 2, 2, 1, 15},
    {"scan_b64", Kind::kStatic, 12, std::size_t{1} << 22, 64, 1, 1, 1, 3},
    {"rw_mixed", Kind::kDynamic, 12, std::size_t{1} << 18, 16, 1, 2, 1, 7},
    {"routed_b16", Kind::kRouted, 12, std::size_t{1} << 18, 16, 1, 1, 1, 7},
};

constexpr std::uint32_t kShards = 2;
/// CPUs every process of a run shares (see README.md, "CPUs"): one, so
/// the calibration slices time the same vCPU the load ran on.
constexpr int kCpus = 1;
/// rw_mixed: pending mutations that trigger a background compaction.
constexpr std::size_t kCompactThreshold = 2048;
constexpr const char* kFsyncPolicy = "none";
constexpr double kWarmupSeconds = 1.0;
/// The measured window is cut into sub-windows this long (see Windowed).
constexpr std::chrono::milliseconds kSubwindow{50};
constexpr double kSubwindowS = 0.05;
/// A calibration slice opens every kCalEvery-th sub-window (calib.hpp).
constexpr int kCalEvery = 5;
/// Distinct request frames generated per reader (cycled in order).
constexpr std::size_t kPoolQueries = 1 << 17;

struct Config {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string bin_dir, work_dir, out_path, spans_path;
  double writer_rate = 0;  ///< rw_mixed MUTATE batches per second
};

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ---- servers ---------------------------------------------------------

struct Server {
  pb::Child child;
  std::uint16_t port = 0;
  std::string role;  ///< "server", "shard0", "shard1", "router", "direct"
};

/// The processes of one set-up.  `servers.back()` is the one clients
/// talk to.  Stopped in reverse start order (router before shards).
struct Fleet {
  std::vector<std::unique_ptr<Server>> servers;
  double setup_s = 0;   ///< tree file -> first OK HEALTH
  double ready_ms = 0;  ///< first spawn -> first OK HEALTH

  [[nodiscard]] std::uint16_t front_port() const {
    return servers.back()->port;
  }
  void stop() {
    while (!servers.empty()) {
      servers.back()->child.stop();
      servers.pop_back();
    }
  }
  ~Fleet() { stop(); }
};

class SetupError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::unique_ptr<Server> start_server(const Config& cfg,
                                     std::vector<std::string> args,
                                     const std::string& role) {
  auto s = std::make_unique<Server>();
  s->role = role;
  const std::string port_file = cfg.work_dir + "/" + role + ".port";
  ::unlink(port_file.c_str());
  args.insert(args.begin(), cfg.bin_dir + "/coopserve");
  args.insert(args.end(), {"--port", "0", "--port-file", port_file});
  s->child = pb::Child(args, cfg.work_dir + "/" + role + ".log");
  s->port = pb::wait_port_file(port_file, s->child, std::chrono::seconds(60));
  if (s->port == 0) {
    throw SetupError(role + " did not start (see " + cfg.work_dir + "/" +
                     role + ".log)");
  }
  return s;
}

void wait_healthy(std::uint16_t port) {
  const auto until = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < until) {
    auto c = net::Client::connect("127.0.0.1", port);
    if (c.ok()) {
      auto h = c->health();
      if (h.ok() && h->draining == 0) {
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw SetupError("no OK HEALTH from port " + std::to_string(port));
}

std::vector<std::string> server_flags(const Workload& w) {
  return {"--workers", std::to_string(w.workers), "--engine-threads",
          std::to_string(w.engine)};
}

/// One set-up, timed from the generated tree file to the first OK HEALTH
/// of the process clients talk to.
std::unique_ptr<Fleet> set_up(const Config& cfg,
                              const std::string& tree_path) {
  const Workload& w = *cfg.w;
  auto fleet = std::make_unique<Fleet>();
  const std::string cli = cfg.bin_dir + "/coopsearch_cli";
  const std::string log = cfg.work_dir + "/setup.log";
  const std::string dir = cfg.work_dir + "/fleet";
  const std::string snap = cfg.work_dir + "/main.snap";
  const std::string wal = cfg.work_dir + "/wal";
  // Every set-up starts from nothing but the tree file: no snapshot, shard
  // or WAL directory of an earlier set-up survives (and none is deleted
  // inside the clock).
  fs::remove_all(dir);
  fs::remove_all(snap);
  fs::remove_all(wal);
  const auto t0 = Clock::now();
  Clock::time_point spawned;
  if (w.kind == Kind::kRouted) {
    if (!pb::run_to_completion({cli, "cluster-partition", tree_path, dir,
                                std::to_string(kShards)},
                               log)) {
      throw SetupError("cluster-partition failed (see " + log + ")");
    }
    spawned = Clock::now();
    std::vector<std::string> shard_args;
    for (std::uint32_t k = 0; k < kShards; ++k) {
      auto args = server_flags(w);
      args.push_back("--collection");
      args.push_back("main=" + cluster::shard_snapshot_path(dir, k));
      fleet->servers.push_back(
          start_server(cfg, args, "shard" + std::to_string(k)));
      shard_args.push_back("--shard");
      shard_args.push_back(std::to_string(k) + "=127.0.0.1:" +
                           std::to_string(fleet->servers.back()->port));
    }
    std::vector<std::string> args = {"--router", "--routing-map",
                                     cluster::routing_map_path(dir)};
    args.insert(args.end(), shard_args.begin(), shard_args.end());
    fleet->servers.push_back(start_server(cfg, args, "router"));
  } else {
    if (!pb::run_to_completion({cli, "snapshot", "save", tree_path, snap},
                               log)) {
      throw SetupError("snapshot save failed (see " + log + ")");
    }
    spawned = Clock::now();
    auto args = server_flags(w);
    if (w.kind == Kind::kDynamic) {
      args.insert(args.end(),
                  {"--dynamic-collection", "main=" + snap, "--wal-dir", wal,
                   "--fsync", kFsyncPolicy, "--compact-threshold",
                   std::to_string(kCompactThreshold)});
    } else {
      args.insert(args.end(), {"--collection", "main=" + snap});
    }
    fleet->servers.push_back(start_server(cfg, args, "server"));
  }
  wait_healthy(fleet->front_port());
  const auto t1 = Clock::now();
  fleet->setup_s = std::chrono::duration<double>(t1 - t0).count();
  fleet->ready_ms = ms_since(spawned, t1);
  return fleet;
}

std::vector<pid_t> pids_of(const Fleet& f) {
  std::vector<pid_t> out;
  for (const auto& s : f.servers) {
    out.push_back(s->child.pid());
  }
  return out;
}

double cpu_seconds(const std::vector<pid_t>& pids) {
  double total = 0;
  for (const pid_t p : pids) {
    const auto s = pb::process_cpu_seconds(p);
    if (!s) {
      throw SetupError("cannot read /proc/" + std::to_string(p) + "/stat");
    }
    total += *s;
  }
  return total;
}

pb::Scrape scrape(std::uint16_t port) {
  auto c = net::Client::connect("127.0.0.1", port);
  if (!c.ok()) {
    throw SetupError("METRICS connect: " + c.status().to_string());
  }
  auto m = c->metrics();
  if (!m.ok()) {
    throw SetupError("METRICS: " + m.status().to_string());
  }
  return pb::parse_metrics(*m);
}

// ---- load ------------------------------------------------------------

/// One recorded operation: when it started (seconds after the window
/// opened; for writes, when it was due), its latency, and the queries or
/// mutations it carried.
struct Sample {
  double t = 0;
  double us = 0;
  std::uint32_t ops = 0;
};

/// What one phase of load measured.
struct LoadResult {
  std::vector<Sample> reads;   ///< reader frames: send -> decoded reply
  std::vector<Sample> writes;  ///< MUTATE: due -> ack; ops = mutations
  std::vector<Sample> probes;  ///< read-your-writes probes after each ack
  std::vector<double> late_us; ///< MUTATE: due -> send
  pb::OpCounts ops;
  std::vector<double> cpu_marks;  ///< server CPU s at each sub-window edge
  /// Per sub-window: share of host CPU time stolen by the hypervisor.
  std::vector<double> steal;
  /// Per sub-window: seconds the readers were held for calibration at its
  /// start, and the median calibration round trip (µs) of its slice.
  std::vector<double> held_s;
  std::vector<double> rtt_us;
  std::string first_error;

  void merge(LoadResult&& o) {
    const auto cat = [](std::vector<Sample>& a, const std::vector<Sample>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(reads, o.reads);
    cat(writes, o.writes);
    cat(probes, o.probes);
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    ops.add(o.ops);
    if (first_error.empty()) {
      first_error = o.first_error;
    }
  }
};

/// The reader's end-to-end figures, taken over the quietest fifth (at
/// least) of the window's 50 ms sub-windows: those in which the hypervisor
/// stole the least host CPU time.  On a shared VM steal comes and goes within
/// seconds, and a few percent of it already stalls a closed loop for
/// milliseconds and moves qps and the tail while the program stays the
/// same.  The selection looks at steal only, never at the figures.  Over
/// the selected sub-windows: qps and cpu_us_per_op are totals over their
/// summed length; p50 and p99 are nearest-rank percentiles of all their
/// frames together, which must leave ten frames beyond the p99.  A
/// sub-window's length excludes the time its readers were held for
/// calibration.  The `_norm` figures scale each sub-window's time (its
/// length, frame latencies, server CPU) by kRefRoundTripUs over the round
/// trip of the calibration slice it follows (calib.hpp).
struct Windowed {
  double qps = 0, p50_us = 0, p99_us = 0, cpu_us_per_op = 0;
  double qps_norm = 0, p50_us_norm = 0, cpu_us_per_op_norm = 0;
  double rtt_us = 0;  ///< median calibration round trip, used sub-windows
  std::size_t subwindows = 0, used = 0, zero_steal = 0;
  std::size_t frames = 0, ops = 0;  ///< in the used sub-windows
  std::size_t p99_beyond = 0;
  double qps_all = 0;     ///< over the whole window, for comparison
  double steal_all = 0;   ///< mean steal share, whole window
  double steal_used = 0;  ///< mean steal share, used sub-windows
};

Windowed summarize(const LoadResult& r) {
  Windowed out;
  const std::size_t k = r.cpu_marks.size() - 1;
  std::vector<std::vector<double>> lat(k);
  std::vector<double> queries(k, 0), ops(k, 0);
  const auto bucket = [k](double t) {
    return t < 0 ? k : std::min(k, static_cast<std::size_t>(t / kSubwindowS));
  };
  for (const Sample& s : r.reads) {
    if (const std::size_t i = bucket(s.t); i < k) {
      lat[i].push_back(s.us);
      queries[i] += s.ops;
      ops[i] += s.ops;
    }
  }
  for (const auto* v : {&r.writes, &r.probes}) {
    for (const Sample& s : *v) {
      if (const std::size_t i = bucket(s.t); i < k) {
        ops[i] += s.ops;
      }
    }
  }
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) {
    order[i] = i;
    out.qps_all += queries[i];
    out.steal_all += r.steal[i];
    out.zero_steal += r.steal[i] == 0 ? 1 : 0;
  }
  out.subwindows = k;
  double held = 0;
  for (const double h : r.held_s) {
    held += h;
  }
  out.qps_all /= static_cast<double>(k) * kSubwindowS - held;
  out.steal_all /= static_cast<double>(k);
  // /proc/stat counts steal in 10 ms ticks, so a short steal can surface
  // in the next sub-window: rank each sub-window by its own steal plus
  // half of each neighbour's.
  std::vector<double> score(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double prev = i > 0 ? r.steal[i - 1] : r.steal[i];
    const double next = i + 1 < k ? r.steal[i + 1] : r.steal[i];
    score[i] = r.steal[i] + 0.5 * (prev + next);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&score](std::size_t a, std::size_t b) {
                     return score[a] < score[b];
                   });
  // The quietest fifth, plus every sub-window exactly as quiet as the
  // last one in it: on a quiet host that is nearly the whole window.
  std::size_t used = (k + 4) / 5;
  while (used < k && score[order[used]] == score[order[used - 1]]) {
    ++used;
  }
  order.resize(used);
  out.used = order.size();
  std::vector<double> pooled, pooled_norm, rtts;
  double q = 0, cpu_s = 0, n_ops = 0, secs = 0;
  double cpu_norm_s = 0, secs_norm = 0;
  for (const std::size_t i : order) {
    // Time at the reference round trip = measured time * scale.
    const double scale = pb::kRefRoundTripUs / r.rtt_us[i];
    pooled.insert(pooled.end(), lat[i].begin(), lat[i].end());
    for (const double us : lat[i]) {
      pooled_norm.push_back(us * scale);
    }
    rtts.push_back(r.rtt_us[i]);
    q += queries[i];
    n_ops += ops[i];
    const double cpu = r.cpu_marks[i + 1] - r.cpu_marks[i];
    const double len = kSubwindowS - r.held_s[i];
    cpu_s += cpu;
    cpu_norm_s += cpu * scale;
    secs += len;
    secs_norm += len * scale;
    out.steal_used += r.steal[i];
  }
  out.steal_used /= static_cast<double>(out.used);
  std::sort(pooled.begin(), pooled.end());
  std::sort(pooled_norm.begin(), pooled_norm.end());
  out.frames = pooled.size();
  out.ops = static_cast<std::size_t>(n_ops);
  out.qps = q / secs;
  out.qps_norm = q / secs_norm;
  out.cpu_us_per_op = n_ops > 0 ? cpu_s * 1e6 / n_ops : 0;
  out.cpu_us_per_op_norm = n_ops > 0 ? cpu_norm_s * 1e6 / n_ops : 0;
  out.p50_us = pb::nearest_rank(pooled, 0.5).value;
  out.p50_us_norm = pb::nearest_rank(pooled_norm, 0.5).value;
  out.rtt_us = pb::median(rtts);
  const pb::Percentile tail = pb::nearest_rank(pooled, 0.99);
  out.p99_us = tail.value;
  out.p99_beyond = tail.beyond;
  return out;
}

struct Inputs {
  cat::Tree tree;
  std::string tree_path;
  std::vector<pb::Batch> reads;
  std::vector<pb::WriteBatch> writes;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool is_shed(const coop::Status& s) {
  return s.code() == coop::StatusCode::kResourceExhausted ||
         s.code() == coop::StatusCode::kUnavailable;
}

/// Compare a PATH_BATCH / DYN_PATH_BATCH response with the expectation.
template <typename Resp>
bool matches(const pb::Batch& b, const Resp& resp) {
  if (resp.answers.size() != b.queries.size()) {
    return false;
  }
  std::size_t k = 0;
  for (std::size_t q = 0; q < b.queries.size(); ++q) {
    const std::size_t n = b.queries[q].path.size();
    if constexpr (std::is_same_v<Resp, net::PathBatchResponse>) {
      const auto& got = resp.answers[q].proper_index;
      if (got.size() != n) {
        return false;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::int64_t>(got[i]) != b.expected[k + i]) {
          return false;
        }
      }
    } else {
      const auto& got = resp.answers[q].keys;
      if (got.size() != n ||
          !std::equal(got.begin(), got.end(), b.expected.begin() + k)) {
        return false;
      }
    }
    k += n;
  }
  return true;
}

/// Per-thread state that survives across phases: its connection and its
/// position in the pre-generated request stream.
struct Caller {
  net::Client client;
  std::size_t next = 0;
  std::uint64_t request_seq = 0;
};

/// Record a failed round trip; returns false when the connection is
/// unusable and the caller should stop.
bool note_error(const coop::Status& s, LoadResult& r) {
  if (is_shed(s) && s.message().find("connection") == std::string::npos) {
    ++r.ops.shed;
    return true;
  }
  ++r.ops.failed;
  if (r.first_error.empty()) {
    r.first_error = s.to_string();
  }
  return false;
}

/// Closed-loop reader: send the next pre-generated frame, wait for the
/// reply, check it, repeat until `until`.  Frames started before
/// `record_from` are checked but not recorded (warm-up).  Between two
/// frames the reader parks while `pause` holds it.
void read_loop(Caller& c, const std::vector<pb::Batch>& pool,
               std::size_t stride, bool dynamic, Clock::time_point record_from,
               Clock::time_point until, pb::SpanLog& spans,
               std::uint64_t parent, std::uint64_t thread_tag,
               pb::Pause& pause, LoadResult& r) {
  struct Leave {
    pb::Pause& p;
    ~Leave() { p.leave(); }
  } leave{pause};
  for (;;) {
    pause.checkpoint();
    const pb::Batch& b = pool[c.next % pool.size()];
    c.next += stride;
    const auto t0 = Clock::now();
    if (t0 >= until) {
      return;
    }
    const bool record = t0 >= record_from;
    Clock::time_point t1;
    bool ok = false, good = false;
    coop::Status err;
    // The clock stops when the reply is decoded, before it is checked.
    const auto settle = [&](const auto& resp) {
      t1 = Clock::now();
      ok = resp.ok();
      if (ok) {
        good = matches(b, *resp);
      } else {
        err = resp.status();
      }
    };
    if (dynamic) {
      settle(c.client.dyn_path_batch("main", b.queries));
    } else {
      settle(c.client.path_batch("main", b.queries));
    }
    const std::uint64_t rid = (thread_tag << 40) | ++c.request_seq;
    if (!ok) {
      ++r.ops.attempted;
      if (!note_error(err, r)) {
        return;
      }
      continue;
    }
    if (!good) {
      ++r.ops.attempted;
      ++r.ops.mismatched;
      continue;
    }
    if (record) {
      ++r.ops.attempted;
      ++r.ops.ok;
      r.reads.push_back({us_between(record_from, t0) / 1e6, us_between(t0, t1),
                         static_cast<std::uint32_t>(b.queries.size())});
      spans.record(dynamic ? "client.dyn_path_batch" : "client.path_batch",
                   t0, t1, parent, rid);
    }
  }
}

/// Open-loop writer: MUTATE batch k is due at base + k / rate whatever
/// happened to batch k-1; its latency counts from the due time.  After
/// each ack a probe reads the mutated keys back on the same connection
/// and must see them (read-your-writes).
void write_loop(Caller& c, const std::vector<pb::WriteBatch>& writes,
                double rate, Clock::time_point base,
                Clock::time_point record_from, Clock::time_point until,
                pb::SpanLog& spans, std::uint64_t parent, LoadResult& r) {
  for (std::size_t k = 0;; ++k) {
    const auto due = base + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(k / rate));
    if (due >= until) {
      return;
    }
    if (c.next >= writes.size()) {
      r.first_error = "write schedule exhausted";
      ++r.ops.failed;
      return;
    }
    std::this_thread::sleep_until(due);
    const pb::WriteBatch& w = writes[c.next++];
    const bool record = due >= record_from;
    const auto sent = Clock::now();
    auto ack = c.client.mutate("main", w.blobs);
    const auto acked = Clock::now();
    const std::uint64_t rid = (std::uint64_t{0xFF} << 40) | ++c.request_seq;
    ++r.ops.attempted;
    if (!ack.ok()) {
      if (!note_error(ack.status(), r)) {
        return;
      }
      continue;
    }
    ++r.ops.ok;
    if (record) {
      r.writes.push_back({us_between(record_from, due) / 1e6,
                          us_between(due, acked),
                          static_cast<std::uint32_t>(w.muts.size())});
      r.late_us.push_back(us_between(due, sent));
      spans.record("client.mutate", sent, acked, parent, rid);
    }
    const auto p0 = Clock::now();
    auto probe = c.client.dyn_path_batch("main", w.probe.queries);
    const auto p1 = Clock::now();
    ++r.ops.attempted;
    if (!probe.ok()) {
      if (!note_error(probe.status(), r)) {
        return;
      }
      continue;
    }
    if (probe->write_seq < ack->ack_seq || !matches(w.probe, *probe)) {
      ++r.ops.mismatched;
      continue;
    }
    ++r.ops.ok;
    if (record) {
      r.probes.push_back({us_between(record_from, p0) / 1e6,
                          us_between(p0, p1),
                          static_cast<std::uint32_t>(w.probe.queries.size())});
      spans.record("client.probe", p0, p1, parent, rid);
    }
  }
}

struct LoadPlan {
  std::vector<Caller>* readers = nullptr;
  Caller* writer = nullptr;  ///< rw_mixed only
  bool dynamic = false;
  double writer_rate = 0;
  pb::Calibrator* calibrator = nullptr;
};

/// One load phase: every caller runs from now until `record_from` plus
/// `subwindows` sub-windows; frames starting at or after `record_from`
/// are recorded.  Server CPU and host steal are read at every sub-window
/// edge.  Every kCalEvery-th sub-window opens with a calibration slice
/// while the readers are held (the paced writer keeps its schedule).
/// With `ids` set, every recorded round trip becomes a span under
/// `parent`, and the phase's span logs are appended to `sink`.
LoadResult run_phase(const Inputs& in, LoadPlan& plan,
                     Clock::time_point record_from, int subwindows,
                     pb::SpanIds* ids,
                     std::vector<pb::SpanLog>* sink, std::uint64_t parent,
                     const std::vector<pid_t>& pids) {
  const auto until = record_from + subwindows * kSubwindow;
  const std::size_t nr = plan.readers->size();
  std::vector<LoadResult> results(nr + 1);
  std::vector<pb::SpanLog> logs;
  for (std::size_t i = 0; i <= nr; ++i) {
    logs.emplace_back(ids, ids == nullptr ? 0 : 1 << 20);
  }
  const auto start = Clock::now();
  pb::Pause pause(static_cast<int>(nr));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < nr; ++i) {
    threads.emplace_back([&, i] {
      read_loop((*plan.readers)[i], in.reads, nr, plan.dynamic, record_from,
                until, logs[i], parent, i + 1, pause, results[i]);
    });
  }
  if (plan.writer != nullptr) {
    threads.emplace_back([&] {
      write_loop(*plan.writer, in.writes, plan.writer_rate, start,
                 record_from, until, logs[nr], parent, results[nr]);
    });
  }
  std::vector<double> cpu_marks, held_s, rtt_us;
  std::vector<pb::HostCpu> host_marks;
  std::exception_ptr error;
  try {
    double rtt = 0;
    for (int i = 0; i <= subwindows; ++i) {
      std::this_thread::sleep_until(record_from + i * kSubwindow);
      cpu_marks.push_back(cpu_seconds(pids));
      host_marks.push_back(pb::host_cpu());
      if (i == subwindows) {
        break;
      }
      double held = 0;
      if (i % kCalEvery == 0) {
        const auto h0 = Clock::now();
        pause.hold();
        rtt = plan.calibrator->slice_us();
        pause.release();
        held = std::chrono::duration<double>(Clock::now() - h0).count();
      }
      held_s.push_back(held);
      rtt_us.push_back(rtt);
    }
  } catch (...) {
    pause.release();
    error = std::current_exception();
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  LoadResult total;
  for (LoadResult& r : results) {
    total.merge(std::move(r));
  }
  total.cpu_marks = std::move(cpu_marks);
  total.held_s = std::move(held_s);
  total.rtt_us = std::move(rtt_us);
  for (std::size_t i = 0; i + 1 < host_marks.size(); ++i) {
    const auto& a = host_marks[i];
    const auto& b = host_marks[i + 1];
    total.steal.push_back(b.total > a.total
                              ? static_cast<double>(b.steal - a.steal) /
                                    static_cast<double>(b.total - a.total)
                              : 0);
  }
  if (sink != nullptr) {
    for (pb::SpanLog& l : logs) {
      sink->push_back(std::move(l));
    }
  }
  return total;
}

// ---- output ----------------------------------------------------------

/// Accumulates the run's JSON document.
class Out {
 public:
  void metric(const std::string& name, double value, const char* unit,
              std::size_t samples = 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                  metrics_.empty() ? "" : ",", name.c_str(), value, unit,
                  samples);
    metrics_ += buf;
  }
  void info(const std::string& key, const std::string& json_value) {
    info_ += (info_.empty() ? "" : ",") + ("\"" + key + "\":" + json_value);
  }
  [[nodiscard]] std::string doc(const pb::OpCounts& ops, bool correct) const {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"correct\":%s,\"attempted\":%llu,\"ok\":%llu,"
                  "\"shed\":%llu,\"failed\":%llu,\"mismatched\":%llu,",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(ops.attempted),
                  static_cast<unsigned long long>(ops.ok),
                  static_cast<unsigned long long>(ops.shed),
                  static_cast<unsigned long long>(ops.failed),
                  static_cast<unsigned long long>(ops.mismatched));
    return std::string(head) + "\"info\":{" + info_ + "},\"metrics\":{" +
           metrics_ + "}}\n";
  }

 private:
  std::string metrics_;
  std::string info_;
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (ch >= 0x20) ? ch : ' ';
  }
  return out + "\"";
}

std::string cpu_model() {
  const auto text = pb::read_file("/proc/cpuinfo");
  if (text) {
    const std::size_t p = text->find("model name");
    if (p != std::string::npos) {
      const std::size_t colon = text->find(':', p);
      const std::size_t eol = text->find('\n', p);
      if (colon != std::string::npos && colon < eol) {
        return text->substr(colon + 2, eol - colon - 2);
      }
    }
  }
  return "unknown";
}

std::string cache_sizes() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const auto level = pb::read_file(dir + "level");
    const auto type = pb::read_file(dir + "type");
    const auto size = pb::read_file(dir + "size");
    if (!level || !type || !size) {
      break;
    }
    const auto trim = [](std::string s) {
      while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) {
        s.pop_back();
      }
      return s;
    };
    out += (out.empty() ? "" : " ") + ("L" + trim(*level) +
                                       trim(*type).substr(0, 1) + "=" +
                                       trim(*size));
  }
  return out.empty() ? "unknown" : out;
}

void fingerprint(Out& out, const Config& cfg, std::size_t snapshot_bytes) {
  const Workload& w = *cfg.w;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%ld,\"client_reader_threads\":%zu,"
      "\"client_writer_threads\":%d,\"servers\":%d,\"server_workers\":%zu,"
      "\"server_engine_threads\":%zu,\"batch\":%zu,\"tree_height\":%u,"
      "\"tree_entries\":%zu,\"snapshot_bytes\":%zu,\"setup_reps\":%d,"
      "\"warmup_s\":%.1f,\"window_s\":%d}",
      ::sysconf(_SC_NPROCESSORS_ONLN), w.readers,
      w.kind == Kind::kDynamic ? 1 : 0,
      w.kind == Kind::kRouted ? static_cast<int>(kShards) + 1 : 1, w.workers,
      w.engine, w.batch, w.height, w.entries, snapshot_bytes, w.setup_reps,
      kWarmupSeconds, cfg.seconds);
  out.info("threads_and_sizes", buf);
  out.info("cpu_model", quoted(cpu_model()));
  out.info("caches", quoted(cache_sizes()));
  out.info("build_type", quoted(PERFBENCH_BUILD_TYPE));
  if (w.kind == Kind::kDynamic) {
    std::snprintf(buf, sizeof(buf),
                  "{\"fsync\":\"%s\",\"writer_batches_per_s\":%.6g,"
                  "\"mutations_per_batch\":%zu,\"compact_threshold\":%zu}",
                  kFsyncPolicy, cfg.writer_rate, pb::kMutationsPerWrite,
                  kCompactThreshold);
    out.info("writer", buf);
  }
}

// ---- in-process layer timing (traced run) ------------------------------

/// Time `fn` repeatedly (at least once, then while under `reps` runs and
/// `budget_s` seconds) and return the median per-run milliseconds.
double median_ms(const std::function<void()>& fn, int reps, double budget_s,
                 pb::SpanLog& spans, const char* name, std::uint64_t parent) {
  std::vector<double> ms;
  const auto begin = Clock::now();
  do {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans.record(name, t0, t1, parent);
    ms.push_back(ms_since(t0, t1));
  } while (static_cast<int>(ms.size()) < reps &&
           std::chrono::duration<double>(Clock::now() - begin).count() <
               budget_s);
  return pb::median(ms);
}

/// Per-unit cost of a pass over `count` units: passes repeat until
/// `budget_s`; returns the median pass time divided by `count`, in ns.
double median_pass_ns(const std::function<void()>& pass, std::size_t count,
                      double budget_s, pb::SpanLog& spans, const char* name,
                      std::uint64_t parent) {
  std::vector<double> per_unit;
  const auto begin = Clock::now();
  do {
    const auto t0 = Clock::now();
    pass();
    const auto t1 = Clock::now();
    spans.record(name, t0, t1, parent);
    per_unit.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(count));
  } while (per_unit.size() < 3 ||
           std::chrono::duration<double>(Clock::now() - begin).count() <
               budget_s);
  return pb::median(per_unit);
}

[[noreturn]] void fail_check(const std::string& what) {
  throw SetupError("in-process answers differ from the oracle: " + what);
}

/// A write batch's runs stamped the way DynamicCatalog::apply_runs does.
std::vector<dyn::Run> stamped_runs(const pb::WriteBatch& w,
                                   std::uint64_t& seq) {
  std::vector<dyn::Run> runs = dyn::runs_from_mutations(w.muts);
  for (dyn::Run& r : runs) {
    r.min_seq = seq + 1;
    seq += r.entries.size();
    r.max_seq = seq;
  }
  return runs;
}

struct TracedWindow {
  LoadResult untraced;
  LoadResult traced;
  pb::Scrape front;   ///< delta at the process clients talk to
  pb::Scrape serving; ///< delta summed over processes that run Frontends
  double depth_max = 0;
  double direct_p50_us = 0;
};

void layer_metrics(const Config& cfg, Inputs& in, const Fleet& fleet,
                   const TracedWindow& tw, pb::SpanLog& spans, Out& out) {
  const Workload& w = *cfg.w;
  const std::uint64_t root = spans.open_id();
  const auto root_t0 = Clock::now();
  const std::string snap_path = cfg.work_dir + "/layers.snap";

  // Set-up layers on the workload's own tree.
  const int reps = w.entries >= (std::size_t{1} << 20) ? 1 : 5;
  std::optional<fc::Structure> structure;
  const double build_ms = median_ms(
      [&] { structure.emplace(fc::Structure::build(in.tree)); }, reps, 2.0,
      spans, "fc.Structure::build", root);
  std::optional<serve::FlatCascade> flat;
  const double compile_ms = median_ms(
      [&] {
        auto f = serve::FlatCascade::compile(*structure);
        if (!f.ok()) {
          fail_check("compile: " + f.status().to_string());
        }
        flat.emplace(f.take());
      },
      reps, 2.0, spans, "serve.FlatCascade::compile", root);
  structure.reset();
  const double write_ms = median_ms(
      [&] {
        if (auto st = snapshot::write(*flat, snap_path); !st.ok()) {
          fail_check("snapshot::write: " + st.to_string());
        }
      },
      reps, 2.0, spans, "snapshot::write", root);
  const std::size_t arena_bytes = flat->arena_bytes();
  flat.reset();
  std::optional<snapshot::Snapshot> snap;
  const double open_ms = median_ms(
      [&] {
        auto s = snapshot::open(snap_path);
        if (!s.ok()) {
          fail_check("snapshot::open: " + s.status().to_string());
        }
        snap.emplace(s.take());
      },
      reps, 2.0, spans, "snapshot::open", root);
  out.metric("fc.build_ms", build_ms, "ms");
  out.metric("serve.compile_ms", compile_ms, "ms");
  out.metric("snapshot.write_ms", write_ms, "ms");
  out.metric("snapshot.open_ms", open_ms, "ms");
  out.metric("net.ready_ms", fleet.ready_ms, "ms");
  double partition_ms = 0;
  if (w.kind == Kind::kRouted) {
    const std::string dir = cfg.work_dir + "/layers-partition";
    partition_ms = median_ms(
        [&] {
          auto m = cluster::partition_to_dir(in.tree, kShards, dir);
          if (!m.ok()) {
            fail_check("partition_to_dir: " + m.status().to_string());
          }
        },
        1, 0, spans, "cluster::partition_to_dir", root);
    fs::remove_all(dir);
  }
  out.metric("cluster.partition_ms", partition_ms, "ms");

  // Read-path layers on the workload's own request frames.
  const serve::FlatCascade& f = snap->cascade;
  const bool keys = w.kind == Kind::kDynamic;
  std::size_t total_q = 0, max_path = 0;
  for (const pb::Batch& b : in.reads) {
    total_q += b.queries.size();
    for (const auto& q : b.queries) {
      max_path = std::max(max_path, q.path.size());
    }
  }
  std::vector<std::uint32_t> aug(max_path * w.batch), prop(max_path * w.batch);
  std::vector<std::uint32_t*> aug_ptr(w.batch), prop_ptr(w.batch);
  for (std::size_t q = 0; q < w.batch; ++q) {
    aug_ptr[q] = aug.data() + q * max_path;
    prop_ptr[q] = prop.data() + q * max_path;
  }
  // The oracle's expectation for query q of batch b, as a key when the
  // workload answers in keys.
  const auto expected_key = [&](const pb::Batch& b, std::size_t k,
                                cat::NodeId v) -> cat::Key {
    return keys ? b.expected[k]
                : in.tree.catalog(v).key(
                      static_cast<std::size_t>(b.expected[k]));
  };
  bool checked = false;
  const double kernel_ns = median_pass_ns(
      [&] {
        for (const pb::Batch& b : in.reads) {
          serve::search_paths_grouped_into(f, b.queries.data(),
                                           b.queries.size(), aug_ptr.data(),
                                           prop_ptr.data());
          if (!checked) {
            std::size_t k = 0;
            for (std::size_t q = 0; q < b.queries.size(); ++q) {
              for (std::size_t i = 0; i < b.queries[q].path.size(); ++i, ++k) {
                const cat::NodeId v = b.queries[q].path[i];
                if (in.tree.catalog(v).key(prop_ptr[q][i]) !=
                    expected_key(b, k, v)) {
                  fail_check("search_paths_grouped_into");
                }
              }
            }
          }
        }
        checked = true;
      },
      total_q, 0.3, spans, "serve::search_paths_grouped_into", root);
  out.metric("serve.kernel_ns_per_query", kernel_ns, "ns", total_q);

  serve::QueryEngine engine(w.engine);
  serve::PathAnswerSet answer_set;
  const double engine_us =
      median_pass_ns(
          [&] {
            for (const pb::Batch& b : in.reads) {
              (void)serve::serve_path_queries_flat(f, engine, b.queries,
                                                   answer_set);
            }
          },
          in.reads.size(), 0.3, spans, "serve::serve_path_queries_flat",
          root) /
      1000.0;
  out.metric("serve.engine_us_per_batch", engine_us, "us", in.reads.size());

  snapshot::Registry registry;
  {
    auto s = snapshot::open(snap_path);
    if (!s.ok()) {
      fail_check("snapshot::open: " + s.status().to_string());
    }
    registry.publish(s.take());
  }
  serve::Frontend frontend(registry, engine);
  std::vector<serve::PathAnswer> answers;
  const double frontend_us =
      median_pass_ns(
          [&] {
            for (const pb::Batch& b : in.reads) {
              if (!frontend.serve_paths(b.queries, answers).ok()) {
                fail_check("Frontend::serve_paths refused a batch");
              }
            }
          },
          in.reads.size(), 0.3, spans, "serve::Frontend::serve_paths", root) /
      1000.0;
  out.metric("serve.frontend_overhead_us", frontend_us - engine_us, "us",
             in.reads.size());

  // Wire codec on the workload's own frames.
  const std::size_t codec_n = std::min<std::size_t>(in.reads.size(), 4096);
  std::vector<std::vector<std::uint8_t>> req_frames(codec_n), resp_frames(
                                                                 codec_n);
  net::FrameHeader req_h;
  req_h.type = static_cast<std::uint16_t>(keys ? net::MsgType::kDynPathBatch
                                               : net::MsgType::kPathBatch);
  net::FrameHeader resp_h = req_h;
  resp_h.type = static_cast<std::uint16_t>(resp_h.type | net::kResponseBit);
  std::vector<net::PathBatchResponse> resps(codec_n);
  std::vector<net::DynPathBatchResponse> dyn_resps(codec_n);
  for (std::size_t i = 0; i < codec_n; ++i) {
    const pb::Batch& b = in.reads[i];
    if (keys) {
      std::size_t k = 0;
      for (const auto& q : b.queries) {
        dyn::PathKeys pk;
        pk.keys.assign(b.expected.begin() + static_cast<long>(k),
                       b.expected.begin() +
                           static_cast<long>(k + q.path.size()));
        k += q.path.size();
        dyn_resps[i].answers.push_back(std::move(pk));
      }
    } else {
      (void)serve::serve_path_queries(f, engine, b.queries, resps[i].answers);
    }
  }
  std::vector<net::PathBatchRequest> reqs(codec_n);
  std::vector<net::DynPathBatchRequest> dyn_reqs(codec_n);
  for (std::size_t i = 0; i < codec_n; ++i) {
    reqs[i] = {"main", in.reads[i].queries};
    dyn_reqs[i] = {"main", in.reads[i].queries};
  }
  double req_bytes = 0, resp_bytes = 0;
  const double enc_req = median_pass_ns(
      [&] {
        for (std::size_t i = 0; i < codec_n; ++i) {
          req_frames[i] = net::encode_frame(
              req_h, keys ? net::encode(dyn_reqs[i]) : net::encode(reqs[i]));
        }
      },
      codec_n, 0.2, spans, "net::encode(request)", root);
  const double enc_resp = median_pass_ns(
      [&] {
        for (std::size_t i = 0; i < codec_n; ++i) {
          resp_frames[i] = net::encode_frame(
              resp_h,
              keys ? net::encode(dyn_resps[i]) : net::encode(resps[i]));
        }
      },
      codec_n, 0.2, spans, "net::encode(response)", root);
  for (std::size_t i = 0; i < codec_n; ++i) {
    req_bytes += static_cast<double>(req_frames[i].size());
    resp_bytes += static_cast<double>(resp_frames[i].size());
  }
  const double dec_req = median_pass_ns(
      [&] {
        for (std::size_t i = 0; i < codec_n; ++i) {
          auto fr = net::decode_frame(req_frames[i]);
          const bool ok = fr.ok() && (keys ? net::decode_dyn_path_request(
                                                 fr->payload)
                                                 .ok()
                                           : net::decode_path_request(
                                                 fr->payload)
                                                 .ok());
          if (!ok) {
            fail_check("request frame did not decode");
          }
        }
      },
      codec_n, 0.2, spans, "net::decode_path_request", root);
  const double dec_resp = median_pass_ns(
      [&] {
        for (std::size_t i = 0; i < codec_n; ++i) {
          auto fr = net::decode_frame(resp_frames[i]);
          const bool ok = fr.ok() && (keys ? net::decode_dyn_path_response(
                                                 fr->payload)
                                                 .ok()
                                           : net::decode_path_response(
                                                 fr->payload)
                                                 .ok());
          if (!ok) {
            fail_check("response frame did not decode");
          }
        }
      },
      codec_n, 0.2, spans, "net::decode_path_response", root);
  out.metric("net.encode_req_ns", enc_req, "ns", codec_n);
  out.metric("net.decode_req_ns", dec_req, "ns", codec_n);
  out.metric("net.encode_resp_ns", enc_resp, "ns", codec_n);
  out.metric("net.decode_resp_ns", dec_resp, "ns", codec_n);
  out.metric("net.req_bytes", req_bytes / static_cast<double>(codec_n),
             "bytes", codec_n);
  out.metric("net.resp_bytes", resp_bytes / static_cast<double>(codec_n),
             "bytes", codec_n);

  // Write-path layers: the rw_mixed writer's batches, or the same kind of
  // batches generated on this workload's tree.
  const std::size_t n_writes = 2000;
  std::vector<pb::WriteBatch> gen_writes;
  if (in.writes.size() < n_writes) {
    gen_writes = pb::make_write_batches(in.tree, n_writes, cfg.seed);
  }
  const std::vector<pb::WriteBatch>& writes =
      in.writes.size() >= n_writes ? in.writes : gen_writes;
  snapshot::Registry dyn_registry;
  dyn_registry.publish(std::move(*snap));
  snap.reset();
  auto attached = dyn::DynamicCatalog::attach(dyn_registry);
  if (!attached.ok()) {
    fail_check("DynamicCatalog::attach: " + attached.status().to_string());
  }
  std::unique_ptr<dyn::DynamicCatalog> dcat = attached.take();
  const auto target_depth = static_cast<std::size_t>(tw.depth_max);
  dyn::StatePtr captured = dcat->state();
  std::vector<double> apply_us;
  for (std::size_t i = 0; i < n_writes; ++i) {
    const auto t0 = Clock::now();
    auto seq = dcat->apply(writes[i].muts);
    const auto t1 = Clock::now();
    if (!seq.ok()) {
      fail_check("DynamicCatalog::apply: " + seq.status().to_string());
    }
    spans.record("dyn::DynamicCatalog::apply", t0, t1, root);
    apply_us.push_back(us_between(t0, t1));
    if (captured->max_depth < target_depth) {
      captured = dcat->state();
    }
  }
  out.metric("dyn.apply_us_per_batch", pb::median(apply_us), "us",
             apply_us.size());
  std::vector<dyn::PathKeys> dyn_out(w.batch);
  bool dyn_checked = false;
  const double dyn_ns = median_pass_ns(
      [&] {
        for (const pb::Batch& b : in.reads) {
          dyn::search_paths_dyn(*captured, b.queries, dyn_out.data());
          if (!dyn_checked && keys) {
            std::size_t k = 0;
            for (std::size_t q = 0; q < b.queries.size(); ++q) {
              for (std::size_t i = 0; i < b.queries[q].path.size(); ++i, ++k) {
                if (dyn_out[q].keys[i] != b.expected[k]) {
                  fail_check("search_paths_dyn");
                }
              }
            }
          }
        }
        dyn_checked = true;
      },
      total_q, 0.3, spans, "dyn::search_paths_dyn", root);
  out.metric("dyn.read_ns_per_query", dyn_ns, "ns", total_q);
  out.metric("dyn.read_slowdown", kernel_ns > 0 ? dyn_ns / kernel_ns : 0,
             "ratio");
  out.info("dyn_read_depth", std::to_string(captured->max_depth));
  captured.reset();
  {
    dyn::Compactor compactor(*dcat, dyn::Compactor::Options{});
    const double compact_ms = median_ms(
        [&] {
          auto v = compactor.compact_once();
          if (!v.ok()) {
            fail_check("compact_once: " + v.status().to_string());
          }
        },
        1, 0, spans, "dyn::Compactor::compact_once", root);
    out.metric("dyn.compact_ms", compact_ms, "ms");
  }
  dcat.reset();

  const std::string wal_dir = cfg.work_dir + "/layers-wal";
  fs::remove_all(wal_dir);
  {
    dyn::WalOptions wopts;
    wopts.fsync = dyn::FsyncPolicy::kNone;
    auto wal = dyn::Wal::open(wal_dir, wopts);
    if (!wal.ok()) {
      fail_check("Wal::open: " + wal.status().to_string());
    }
    std::uint64_t seq = 0;
    std::vector<double> append_us;
    for (std::size_t i = 0; i < n_writes; ++i) {
      const std::vector<dyn::Run> runs = stamped_runs(writes[i], seq);
      const auto t0 = Clock::now();
      const bool ok =
          (*wal)->append(runs).ok() && (*wal)->wait_durable(seq).ok();
      const auto t1 = Clock::now();
      if (!ok) {
        fail_check("Wal::append");
      }
      spans.record("dyn::Wal::append+wait_durable", t0, t1, root);
      append_us.push_back(us_between(t0, t1));
    }
    out.metric("wal.append_us", pb::median(append_us), "us", append_us.size());
  }
  fs::remove_all(wal_dir);
  ::unlink(snap_path.c_str());

  // Scraped layers (deltas over the traced window).
  const pb::Scrape& s = tw.serving;
  const auto engine_n =
      static_cast<std::size_t>(s.count("serve_engine_batch_latency_ns"));
  out.metric("serve.engine_batch_p50_us",
             s.percentile("serve_engine_batch_latency_ns", 0.5) / 1000.0, "us",
             engine_n);
  out.metric(
      "serve.frontend_batch_p50_us",
      s.percentile("serve_frontend_batch_latency_ns", 0.5) / 1000.0, "us",
      static_cast<std::size_t>(s.count("serve_frontend_batch_latency_ns")));
  const double batches = s.value("serve_engine_batches_total");
  out.metric("serve.engine_inline_frac",
             batches > 0
                 ? s.value("serve_engine_batches_inline_total") / batches
                 : 0,
             "ratio", static_cast<std::size_t>(batches));
  const auto req_n = static_cast<std::size_t>(s.count("net_server_request_ns"));
  const double srv_p50 = s.percentile("net_server_request_ns", 0.5) / 1000.0;
  out.metric("net.server_request_p50_us", srv_p50, "us", req_n);
  out.metric("net.server_request_p99_us",
             s.percentile("net_server_request_ns", 0.99) / 1000.0, "us",
             req_n);
  // Client-side figures below use the same quiet sub-windows as the
  // end-to-end metrics; the scraped server histograms cover whole windows.
  const Windowed traced = summarize(tw.traced);
  out.metric("net.outside_server_us", traced.p50_us - srv_p50, "us",
             traced.frames);

  const pb::Scrape& fr = tw.front;
  out.metric("dyn.overlay_depth_max", tw.depth_max, "count");
  out.metric("dyn.compactions", fr.value("dyn_compactions_installed_total"),
             "count");
  out.metric("dyn.merges", fr.value("dyn_run_merges_total"), "count");
  out.metric("wal.records", fr.value("wal_records_appended_total"), "count");
  out.metric("wal.group_commits", fr.value("wal_group_commits_total"),
             "count");

  const Windowed untraced = summarize(tw.untraced);
  out.metric("cluster.router_overhead_us",
             w.kind == Kind::kRouted ? untraced.p50_us - tw.direct_p50_us : 0,
             "us");
  const double routed = fr.value("cluster_router_batches_total");
  out.metric("cluster.sub_batches_per_batch",
             routed > 0 ? fr.value("cluster_router_sub_batches_total") / routed
                        : 0,
             "ratio", static_cast<std::size_t>(routed));
  out.metric("cluster.hedged_retries",
             fr.value("cluster_router_hedged_retries_total"), "count");

  std::vector<double> late = tw.traced.late_us, wlat;
  for (const Sample& x : tw.traced.writes) {
    wlat.push_back(x.us);
  }
  std::sort(late.begin(), late.end());
  std::sort(wlat.begin(), wlat.end());
  const pb::Percentile late99 = pb::nearest_rank(late, 0.99);
  out.metric("load.write_late_us_p99", late99.value, "us", late99.samples);
  out.metric("load.write_p50_us", pb::nearest_rank(wlat, 0.5).value, "us",
             wlat.size());
  out.metric("load.write_p99_us", pb::nearest_rank(wlat, 0.99).value, "us",
             wlat.size());
  out.metric("trace.overhead_frac",
             untraced.qps_norm > 0 ? 1.0 - traced.qps_norm / untraced.qps_norm
                                   : 0,
             "ratio");
  out.info("arena_bytes_in_process", std::to_string(arena_bytes));
  spans.record_with_id(root, "layers", root_t0, Clock::now());
}

// ---- the run ---------------------------------------------------------

std::vector<Caller> connect_callers(std::uint16_t port, std::size_t n) {
  std::vector<Caller> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto c = net::Client::connect("127.0.0.1", port);
    if (!c.ok()) {
      throw SetupError("connect: " + c.status().to_string());
    }
    out.push_back(Caller{c.take(), i, 0});
  }
  return out;
}

Inputs make_inputs(const Config& cfg) {
  const Workload& w = *cfg.w;
  Inputs in;
  in.tree = pb::make_tree(w.height, w.entries, cfg.seed);
  in.tree_path = cfg.work_dir + "/tree.txt";
  if (!pb::write_tree_file(in.tree, in.tree_path)) {
    throw SetupError("cannot write " + in.tree_path);
  }
  const std::size_t frames = std::max<std::size_t>(kPoolQueries / w.batch, 64);
  in.reads = pb::make_read_batches(
      in.tree, w.batch, frames, cfg.seed,
      w.kind == Kind::kDynamic ? pb::Answer::kKey : pb::Answer::kProperIndex);
  if (w.kind == Kind::kDynamic) {
    // Every batch the paced writer can be due in warm-up, the untraced
    // window and the traced window, plus slack.
    const double span = kWarmupSeconds + 2.0 * cfg.seconds + 1;
    in.writes = pb::make_write_batches(
        in.tree, static_cast<std::size_t>(cfg.writer_rate * span) + 64,
        cfg.seed);
  }
  return in;
}

/// Report percentile q of `v`; a run without ten samples beyond it is
/// an error, not a number.
void add_latency(Out& out, const char* name, std::vector<double> v,
                 double q) {
  std::sort(v.begin(), v.end());
  const pb::Percentile p = pb::nearest_rank(v, q);
  if (p.beyond < 10) {
    throw SetupError(std::string(name) + ": only " +
                     std::to_string(p.samples) +
                     " samples, fewer than ten beyond the percentile");
  }
  out.metric(name, p.value, "us", p.samples);
}

/// Confine this process, and so every thread and child it starts, to the
/// first kCpus CPUs it may run on.  Returns them as "0,1".
std::string confine_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw SetupError("sched_getaffinity failed");
  }
  cpu_set_t use;
  CPU_ZERO(&use);
  std::string list;
  int n = 0;
  for (int c = 0; c < CPU_SETSIZE && n < kCpus; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      list += (n++ == 0 ? "" : ",") + std::to_string(c);
    }
  }
  if (::sched_setaffinity(0, sizeof(use), &use) != 0) {
    throw SetupError("sched_setaffinity failed");
  }
  return list;
}

int run(const Config& cfg) {
  const Workload& w = *cfg.w;
  Out out;
  out.info("cpus", quoted(confine_cpus()));
  fs::create_directories(cfg.work_dir);
  Inputs in = make_inputs(cfg);

  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  const int reps = cfg.trace ? 1 : w.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    if (fleet) {
      fleet->stop();
    }
    fleet = set_up(cfg, in.tree_path);
    setups.push_back(fleet->setup_s);
  }
  const std::vector<pid_t> pids = pids_of(*fleet);
  std::size_t snapshot_bytes = 0;
  if (w.kind != Kind::kRouted) {
    struct stat st {};
    const std::string snap = cfg.work_dir + "/main.snap";
    if (::stat(snap.c_str(), &st) == 0) {
      snapshot_bytes = static_cast<std::size_t>(st.st_size);
    }
  }
  fingerprint(out, cfg, snapshot_bytes);

  std::vector<Caller> readers = connect_callers(fleet->front_port(), w.readers);
  std::vector<Caller> writer;
  if (w.kind == Kind::kDynamic) {
    writer = connect_callers(fleet->front_port(), 1);
  }
  pb::Calibrator calibrator;
  LoadPlan plan{&readers, writer.empty() ? nullptr : &writer[0],
                w.kind == Kind::kDynamic, cfg.writer_rate, &calibrator};
  const auto warmed = [] {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kWarmupSeconds));
  };

  const int subwindows = static_cast<int>(
      std::chrono::seconds(cfg.seconds) / kSubwindow);

  // Warm-up (checked, not recorded) then the untraced window.
  LoadResult window =
      run_phase(in, plan, warmed(), subwindows, nullptr, nullptr, 0, pids);
  double rss_mb = 0;
  for (const pid_t p : pids) {
    rss_mb += pb::process_peak_rss_mb(p).value_or(0);
  }
  pb::OpCounts ops = window.ops;
  const std::string first_error = window.first_error;

  std::vector<pb::SpanLog> span_logs;
  pb::SpanIds ids;
  pb::SpanLog main_spans(&ids, 1 << 10);
  const auto run_t0 = Clock::now();
  if (!cfg.trace) {
    const Windowed wnd = summarize(window);
    if (wnd.p99_beyond < 10) {
      throw SetupError("the quiet sub-windows held only " +
                       std::to_string(wnd.frames) +
                       " frames, fewer than ten beyond their p99");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"subwindows\":%zu,\"zero_steal\":%zu,\"used\":%zu,"
                  "\"steal_all\":%.4f,\"steal_used\":%.4f,"
                  "\"qps_all\":%.6g}",
                  wnd.subwindows, wnd.zero_steal, wnd.used, wnd.steal_all,
                  wnd.steal_used, wnd.qps_all);
    out.info("quiet_selection", buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"slices\":%d,\"round_trips_per_slice\":%d,"
                  "\"median_round_trip_us\":%.4g,\"reference_us\":%g}",
                  (subwindows + kCalEvery - 1) / kCalEvery,
                  pb::Calibrator::kRoundTrips, wnd.rtt_us,
                  pb::kRefRoundTripUs);
    out.info("calibration", buf);
    out.metric("setup_s", pb::median(setups), "s", setups.size());
    out.metric("qps", wnd.qps, "1/s", wnd.frames);
    out.metric("p50_us", wnd.p50_us, "us", wnd.frames);
    out.metric("p99_us", wnd.p99_us, "us", wnd.frames);
    out.metric("cpu_us_per_op", wnd.cpu_us_per_op, "us", wnd.ops);
    out.metric("qps_norm", wnd.qps_norm, "1/s", wnd.frames);
    out.metric("p50_us_norm", wnd.p50_us_norm, "us", wnd.frames);
    out.metric("cpu_us_per_op_norm", wnd.cpu_us_per_op_norm, "us", wnd.ops);
    out.metric("rss_mb", rss_mb, "MiB", pids.size());
    if (w.kind == Kind::kDynamic) {
      std::vector<double> wlat;
      for (const Sample& x : window.writes) {
        wlat.push_back(x.us);
      }
      add_latency(out, "write_p50_us", wlat, 0.5);
      add_latency(out, "write_p99_us", wlat, 0.99);
    }
    out.metric("fail_frac", ops.fail_frac(), "ratio", ops.attempted);
  } else {
    TracedWindow tw;
    tw.untraced = std::move(window);
    std::vector<pb::Scrape> before;
    for (const auto& s : fleet->servers) {
      before.push_back(scrape(s->port));
    }
    // Overlay depth is a gauge: sample it through the traced window.
    std::atomic<bool> sampling{w.kind == Kind::kDynamic};
    std::thread sampler;
    std::exception_ptr sampler_error;
    if (sampling) {
      sampler = std::thread([&] {
        try {
          while (sampling.load()) {
            const double depth =
                scrape(fleet->front_port()).value("dyn_overlay_depth");
            tw.depth_max = std::max(tw.depth_max, depth);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        } catch (...) {
          sampler_error = std::current_exception();
        }
      });
    }
    const std::uint64_t window_id = main_spans.open_id();
    const auto t = Clock::now();
    tw.traced = run_phase(in, plan, t, subwindows, &ids, &span_logs,
                          window_id, pids);
    main_spans.record_with_id(window_id, "window.traced", t, Clock::now());
    sampling = false;
    if (sampler.joinable()) {
      sampler.join();
    }
    if (sampler_error) {
      std::rethrow_exception(sampler_error);
    }
    for (std::size_t i = 0; i < fleet->servers.size(); ++i) {
      const Server& s = *fleet->servers[i];
      const pb::Scrape d = pb::Scrape::delta(before[i], scrape(s.port));
      if (s.role == "router") {
        tw.front = d;
      } else {
        tw.serving.add(d);
        if (w.kind != Kind::kRouted) {
          tw.front = d;
        }
      }
    }
    ops.add(tw.traced.ops);
    if (w.kind == Kind::kRouted) {
      // The same requests against one direct whole-tree server.
      const std::string snap = cfg.work_dir + "/direct.snap";
      if (!pb::run_to_completion({cfg.bin_dir + "/coopsearch_cli", "snapshot",
                                  "save", in.tree_path, snap},
                                 cfg.work_dir + "/setup.log")) {
        throw SetupError("snapshot save (direct) failed");
      }
      auto args = server_flags(w);
      args.insert(args.end(), {"--collection", "main=" + snap});
      Fleet direct;
      direct.servers.push_back(start_server(cfg, args, "direct"));
      wait_healthy(direct.front_port());
      std::vector<Caller> dc = connect_callers(direct.front_port(), w.readers);
      LoadPlan dplan{&dc, nullptr, false, 0, &calibrator};
      LoadResult d = run_phase(in, dplan, warmed(), subwindows, nullptr,
                               nullptr, 0, pids_of(direct));
      ops.add(d.ops);
      tw.direct_p50_us = summarize(d).p50_us;
      dc.clear();
      direct.stop();
    }
    // The in-process layer timing runs with every server stopped.
    readers.clear();
    writer.clear();
    fleet->stop();
    layer_metrics(cfg, in, *fleet, tw, main_spans, out);
  }
  readers.clear();
  writer.clear();
  fleet->stop();

  if (cfg.trace && !cfg.spans_path.empty()) {
    std::vector<const pb::SpanLog*> logs{&main_spans};
    for (const pb::SpanLog& l : span_logs) {
      logs.push_back(&l);
    }
    if (!pb::write_spans(cfg.spans_path, logs, run_t0)) {
      throw SetupError("cannot write " + cfg.spans_path);
    }
  }
  const bool correct = ops.mismatched == 0;
  if (!first_error.empty()) {
    out.info("first_error", quoted(first_error));
  }
  const std::string doc = out.doc(ops, correct);
  std::FILE* fo = std::fopen(cfg.out_path.c_str(), "w");
  if (fo == nullptr || std::fputs(doc.c_str(), fo) < 0 ||
      std::fclose(fo) != 0) {
    throw SetupError("cannot write " + cfg.out_path);
  }
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload NAME --seed N "
               "--seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR --out FILE "
               "[--spans FILE] [--writer-rate R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) {
          cfg.w = &w;
        }
      }
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<int>(std::strtol(v.c_str(), nullptr, 10));
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--bin-dir") {
      cfg.bin_dir = v;
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--out") {
      cfg.out_path = v;
    } else if (a == "--spans") {
      cfg.spans_path = v;
    } else if (a == "--writer-rate") {
      cfg.writer_rate = std::strtod(v.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  if (cfg.w == nullptr || cfg.seconds <= 0 || cfg.bin_dir.empty() ||
      cfg.work_dir.empty() || cfg.out_path.empty() ||
      (cfg.w->kind == Kind::kDynamic && cfg.writer_rate <= 0)) {
    return usage();
  }
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 2;
  }
}
