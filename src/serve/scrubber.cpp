#include "serve/scrubber.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace serve {

using coop::Status;

namespace {

/// Scrubber metrics (DESIGN.md §10).  A pass is seconds of work, so these
/// fire a handful of times per interval — overhead is irrelevant; the
/// value is the operator timeline (passes vs failures vs rollbacks).
struct ScrubMetrics {
  obs::Counter passes;
  obs::Counter clean;
  obs::Counter crc_failures;
  obs::Counter diff_failures;
  obs::Counter quarantines;
  obs::Counter rollbacks;
  obs::Counter rollback_failures;
};

ScrubMetrics& scrub_metrics() {
  auto& r = obs::Registry::global();
  static ScrubMetrics m{
      r.counter("serve_scrub_passes_total", "Scrub passes started"),
      r.counter("serve_scrub_clean_total", "Scrub passes that found nothing"),
      r.counter("serve_scrub_crc_failures_total",
                "Scrub passes failed by CRC verification"),
      r.counter("serve_scrub_diff_failures_total",
                "Scrub passes failed by differential sampling"),
      r.counter("serve_scrub_quarantines_total",
                "Generations quarantined by the scrubber"),
      r.counter("serve_scrub_rollbacks_total",
                "Successful scrubber-initiated rollbacks"),
      r.counter("serve_scrub_rollback_failures_total",
                "Rollbacks that found no target or lost a publish race"),
  };
  return m;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Tiny counter-based stream: deterministic per (seed, version, pass).
struct Stream {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix64(state); }
};

}  // namespace

Scrubber::Scrubber(snapshot::Registry& registry, ScrubberOptions opts,
                   ScrubOracle oracle)
    : registry_(registry), opts_(opts), oracle_(std::move(oracle)) {}

Scrubber::~Scrubber() { stop(); }

void Scrubber::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void Scrubber::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void Scrubber::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, opts_.interval, [this] { return stopping_; });
    if (stopping_) {
      break;
    }
    lock.unlock();
    (void)run_pass();
    lock.lock();
  }
}

ScrubberStats Scrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Scrubber::run_pass() {
  std::uint64_t pass = 0;
  scrub_metrics().passes.inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.passes;
    pass = ++pass_counter_;
  }
  // The pin keeps the generation mapped for the whole pass — including
  // through our own rollback, which retires it; the unmap waits for this
  // very pin to drop.
  const snapshot::Registry::Pin pin = registry_.pin();
  if (!pin.has_snapshot()) {
    return coop::OkStatus();
  }
  const std::uint64_t version = pin.version();
  Status bad;
  bool crc_bad = false;

  if (opts_.verify_crc) {
    if (Status s = snapshot::verify(pin.snapshot()); !s.ok()) {
      bad = Status::error(s.code(), "scrub of generation " +
                                        std::to_string(version) + ": " +
                                        s.message());
      crc_bad = true;
    }
  }

  if (bad.ok() && oracle_ && opts_.samples > 0 &&
      pin.snapshot().kind == snapshot::SnapshotKind::kCascade &&
      pin.snapshot().cascade.num_nodes() > 0) {
    const FlatCascade& f = pin.snapshot().cascade;
    Stream rng{splitmix64(opts_.seed ^ splitmix64(version) ^
                          splitmix64(pass))};
    for (std::size_t q = 0; q < opts_.samples && bad.ok(); ++q) {
      const cat::Key y = static_cast<cat::Key>(
          rng.next() % static_cast<std::uint64_t>(opts_.sample_key_range));
      std::uint32_t v = f.root();
      for (;;) {
        const std::uint32_t got = f.to_proper(v, f.find(v, y));
        const std::uint32_t want = oracle_(v, y);
        if (got != want) {
          bad = Status::corrupted(
              "scrub of generation " + std::to_string(version) +
              ": differential mismatch at node " + std::to_string(v) +
              " for y=" + std::to_string(y) + " (served " +
              std::to_string(got) + ", oracle " + std::to_string(want) +
              ")");
          break;
        }
        if (f.is_leaf(v)) {
          break;
        }
        v = f.child(v, static_cast<std::uint32_t>(
                           rng.next() % f.node(v).num_children));
      }
    }
  }

  if (bad.ok()) {
    registry_.mark_good(version);
    scrub_metrics().clean.inc();
    obs::TraceRing::global().emit(version, obs::SpanKind::kScrubPass,
                                  /*a=*/1);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.clean_passes;
    return coop::OkStatus();
  }
  if (crc_bad) {
    scrub_metrics().crc_failures.inc();
  } else {
    scrub_metrics().diff_failures.inc();
  }
  obs::TraceRing::global().emit(version, obs::SpanKind::kScrubPass, /*a=*/0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crc_bad) {
      ++stats_.crc_failures;
    } else {
      ++stats_.differential_failures;
    }
    stats_.last_failure = bad.to_string();
  }
  on_bad(version, bad);
  return bad;
}

void Scrubber::on_bad(std::uint64_t version, const Status& /*why*/) {
  scrub_metrics().quarantines.inc();
  obs::TraceRing::global().emit(version, obs::SpanKind::kQuarantine);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.quarantines;
    stats_.last_bad_version = version;
  }
  const std::uint64_t target = registry_.last_known_good(version);
  if (target == 0) {
    // Nowhere to go: keep serving (answers may still be fine — the CRC
    // is a leading indicator) and let the operator see the stats.
    scrub_metrics().rollback_failures.inc();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rollback_failures;
    return;
  }
  const Status st = registry_.rollback(target, version);
  if (st.ok()) {
    scrub_metrics().rollbacks.inc();
  } else {
    scrub_metrics().rollback_failures.inc();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (st.ok()) {
    ++stats_.rollbacks;
    stats_.last_rollback_to = target;
  } else {
    // Lost a race with a publish: the suspect generation is no longer
    // current, so there is nothing left to roll back.
    ++stats_.rollback_failures;
  }
}

}  // namespace serve
