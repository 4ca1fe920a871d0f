// Self-test of the benchmark's C++ machinery: percentile math with its
// sample counts, failure accounting, the /proc CPU, RSS and steal
// readers, METRICS parsing, span output, the seeded inputs (same seed,
// same bytes), and the calibration slice and reader pause.
// test_perfbench.py covers the Python side.  Run through
// `python3 perfbench/run.py --self-test`; exits nonzero when any check
// fails.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "gen.hpp"
#include "procfs.hpp"
#include "scrape.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  const pb::Percentile p99 = pb::nearest_rank(v, 0.99);
  check(near(p99.value, 990) && p99.samples == 1000 && p99.beyond == 10,
        "p99 of 1..1000 is 990 with 10 samples beyond");
  const pb::Percentile p50 = pb::nearest_rank(v, 0.5);
  check(near(p50.value, 500) && p50.beyond == 500, "p50 of 1..1000 is 500");
  v.pop_back();  // 999 samples: p99 keeps fewer than ten beyond
  check(pb::nearest_rank(v, 0.99).beyond < 10,
        "p99 of 999 samples has fewer than ten beyond");
  check(pb::nearest_rank({}, 0.5).samples == 0, "empty set has no samples");
  check(near(pb::median({3, 1, 2}), 2), "median of odd count");
  check(near(pb::median({4, 1, 3, 2}), 2.5), "median of even count");

  // Buckets (le): 10, 20, +Inf with 5, 15, 20 cumulative samples.
  const std::vector<double> bounds{10, 20, INFINITY};
  const std::vector<double> cum{5, 15, 20};
  check(near(pb::histogram_percentile(bounds, cum, 0.25), 10),
        "histogram p25 lands on the first bucket edge");
  check(near(pb::histogram_percentile(bounds, cum, 0.5), 15),
        "histogram p50 interpolates inside its bucket");
  check(near(pb::histogram_percentile(bounds, cum, 0.9), 20),
        "histogram tail in +Inf reports the lower edge");
  check(near(pb::histogram_percentile(bounds, {0, 0, 0}, 0.5), 0),
        "empty histogram reports 0");
}

void test_failure_accounting() {
  pb::OpCounts c;
  c.attempted = 100;
  c.ok = 90;
  c.shed = 6;
  c.failed = 4;
  check(near(c.fail_frac(), 0.10), "a shed counts as a failure");
  pb::OpCounts d;
  d.attempted = 100;
  d.ok = 99;
  d.mismatched = 1;
  c.add(d);
  check(c.attempted == 200 && c.shed + c.failed + c.mismatched == 11,
        "counts add up");
  check(near(c.fail_frac(), 0.05), "mismatches are not sheds or failures");
  check(near(pb::OpCounts{}.fail_frac(), 0),
        "nothing attempted, nothing failed");
}

void test_procfs() {
  const std::string stat =
      "1234 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20 0 1 0";
  const auto ticks = pb::parse_stat_cpu_ticks(stat);
  check(ticks && *ticks == 333, "utime+stime parsed past a ')' in comm");
  check(!pb::parse_stat_cpu_ticks("1 (x) S 1 2"), "short stat is refused");
  check(!pb::parse_stat_cpu_ticks("1 (x) S 1 2 3 4 5 6 7 8 9 10 z 2"),
        "non-numeric utime is refused");
  const std::string status =
      "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   4096 kB\nVmRSS:\t 100 kB\n";
  const auto hwm = pb::parse_status_kb(status, "VmHWM");
  check(hwm && *hwm == 4096, "VmHWM parsed");
  check(!pb::parse_status_kb(status, "VmSwap"), "missing key is refused");

  const auto cpu0 = pb::process_cpu_seconds(::getpid());
  volatile double sink = 0;
  for (long i = 0; i < 200'000'000 && pb::process_cpu_seconds(::getpid()) ==
                                          cpu0;
       ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const auto cpu1 = pb::process_cpu_seconds(::getpid());
  check(cpu0 && cpu1 && *cpu1 > *cpu0, "own CPU time advances when busy");
  const auto host = pb::parse_host_cpu("cpu  10 0 20 300 4 0 5 60 7 0\n");
  check(host && host->total == 399 && host->steal == 60,
        "host total (guest excluded) and steal ticks parsed");
  check(!pb::parse_host_cpu("intr 1 2 3"), "a non-cpu line is refused");
  const auto rss0 = pb::process_peak_rss_mb(::getpid());
  std::vector<char> block(std::size_t{64} << 20, 1);
  for (std::size_t i = 0; i < block.size(); i += 4096) {
    block[i] = static_cast<char>(i);
  }
  const auto rss1 = pb::process_peak_rss_mb(::getpid());
  check(rss0 && rss1 && *rss1 >= *rss0 + 60,
        "peak RSS grows by a touched 64 MiB block");
}

void test_scrape() {
  const std::string text =
      "# HELP x\nserve_engine_batches_total 10\n"
      "h_bucket{le=\"1000\"} 2\nh_bucket{le=\"2000\"} 6\n"
      "h_bucket{le=\"+Inf\"} 6\nh_sum 9000\nh_count 6\n";
  const std::string text2 =
      "serve_engine_batches_total 25\n"
      "h_bucket{le=\"1000\"} 2\nh_bucket{le=\"2000\"} 16\n"
      "h_bucket{le=\"+Inf\"} 16\n";
  const pb::Scrape a = pb::parse_metrics(text);
  const pb::Scrape d = pb::Scrape::delta(a, pb::parse_metrics(text2));
  check(near(a.value("serve_engine_batches_total"), 10), "counter parsed");
  check(near(d.value("serve_engine_batches_total"), 15), "counter delta");
  check(near(d.count("h"), 10), "histogram delta count");
  check(near(d.percentile("h", 0.5), 1500), "histogram delta percentile");
  pb::Scrape sum = d;
  sum.add(d);
  check(near(sum.count("h"), 20), "shard deltas add");
}

void test_spans(const std::string& dir) {
  pb::SpanIds ids;
  pb::SpanLog log(&ids, 4);
  const auto t0 = pb::Clock::now();
  const std::uint64_t parent = log.open_id();
  log.record("child", t0, t0 + std::chrono::microseconds(5), parent, 42);
  log.record_with_id(parent, "parent", t0, t0 + std::chrono::microseconds(9));
  pb::SpanLog off;
  check(off.record("x", t0, t0) == 0 && off.spans().empty(),
        "a disabled log records nothing");
  const std::string path = dir + "/spans.tsv";
  check(pb::write_spans(path, {&log}, t0), "spans written");
  std::ifstream in(path);
  std::string header, l1, l2;
  std::getline(in, header);
  std::getline(in, l1);
  std::getline(in, l2);
  check(header == "id\tparent\trequest_id\tname\tstart_ns\tend_ns",
        "span file header");
  check(l1 == "2\t1\t42\tchild\t0\t5000", "child span line");
  check(l2 == "1\t0\t0\tparent\t0\t9000", "parent span line");
  std::remove(path.c_str());
}

void test_seeded_inputs(const std::string& dir) {
  const auto a = pb::make_tree(6, 3000, 7), b = pb::make_tree(6, 3000, 7);
  const auto c = pb::make_tree(6, 3000, 8);
  const std::string pa = dir + "/a.txt", pb_ = dir + "/b.txt";
  check(pb::write_tree_file(a, pa) && pb::write_tree_file(b, pb_),
        "tree files written");
  const auto fa = pb::read_file(pa), fb = pb::read_file(pb_);
  check(fa && fb && *fa == *fb, "same seed, byte-identical tree file");
  std::remove(pa.c_str());
  std::remove(pb_.c_str());

  for (const auto answer : {pb::Answer::kProperIndex, pb::Answer::kKey}) {
    const auto r1 = pb::serialize(pb::make_read_batches(a, 16, 50, 7, answer));
    const auto r2 = pb::serialize(pb::make_read_batches(b, 16, 50, 7, answer));
    const auto r3 = pb::serialize(pb::make_read_batches(c, 16, 50, 8, answer));
    check(r1 == r2, "same seed, byte-identical request set");
    check(r1 != r3, "another seed, another request set");
  }
  const auto w1 = pb::serialize(pb::make_write_batches(a, 100, 7));
  const auto w2 = pb::serialize(pb::make_write_batches(b, 100, 7));
  check(w1 == w2, "same seed, byte-identical write schedule");

  // The expected answers come from the oracle, and the reader's keys are
  // out of the writer's reach.
  const auto reads = pb::make_read_batches(a, 4, 20, 7, pb::Answer::kKey);
  bool oracle = true;
  for (const pb::Batch& bt : reads) {
    std::size_t k = 0;
    for (const auto& q : bt.queries) {
      for (const cat::NodeId v : q.path) {
        const cat::Catalog& cg = a.catalog(v);
        oracle = oracle && bt.expected[k] == cg.key(cg.find(q.y)) &&
                 bt.expected[k] < pb::kWriterKeyLo;
        ++k;
      }
    }
  }
  check(oracle, "reader expectations are oracle keys below the writer band");
  bool writer_band = true;
  for (const pb::WriteBatch& w : pb::make_write_batches(a, 50, 3)) {
    for (const dyn::Mutation& m : w.muts) {
      writer_band = writer_band && m.key >= pb::kWriterKeyLo &&
                    m.key < pb::kKeyRange;
    }
    writer_band = writer_band && !w.probe.queries.empty();
  }
  check(writer_band, "writer mutates only its band and probes every batch");
}

void test_calibration() {
  pb::Calibrator cal;
  const double a = cal.slice_us();
  const double b = cal.slice_us();
  check(a > 0 && b > 0 && a < 1e5 && b < 1e5,
        "a calibration slice returns a plausible round trip");

  // Two readers that count frames; while held, neither may start one.
  pb::Pause pause(2);
  std::atomic<bool> stop{false};
  std::atomic<long> frames{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        pause.checkpoint();
        frames.fetch_add(1);
        std::this_thread::yield();
      }
      pause.leave();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pause.hold();
  const long held_at = frames.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  check(frames.load() == held_at, "no frame starts while the pause holds");
  pause.release();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  check(frames.load() > held_at, "readers resume after release");
  stop = true;
  for (std::thread& t : readers) {
    t.join();
  }
  pause.hold();  // every reader has left: returns at once
  pause.release();
}

}  // namespace

int main() {
  char tmpl[] = "perfbench-selftest-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "cannot create a scratch directory\n");
    return 2;
  }
  test_percentiles();
  test_failure_accounting();
  test_procfs();
  test_scrape();
  test_spans(dir);
  test_seeded_inputs(dir);
  test_calibration();
  ::rmdir(dir);
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
