#include "serve/frontend.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace serve {

using coop::Status;

namespace {

/// Frontend metrics (DESIGN.md §10).  The per-batch counters mirror
/// FrontendStats so a scrape agrees with stats() modulo in-flight batches;
/// the gauges are the operator's one-glance view (breaker state, health,
/// in-flight).
struct FrontendMetrics {
  obs::Counter submitted;
  obs::Counter admitted;
  obs::Counter shed;
  obs::Counter shed_breaker;
  obs::Counter completed;
  obs::Counter refused;
  obs::Counter degraded;
  obs::Counter degraded_deadline;
  obs::Counter retries;
  obs::Counter breaker_trips;
  obs::Counter breaker_probes;
  obs::Counter sequential;
  obs::Gauge breaker_state;
  obs::Gauge health;
  obs::Gauge inflight;
  obs::Histogram backoff_ns;
  obs::Histogram batch_latency_ns;
};

FrontendMetrics& frontend_metrics() {
  auto& r = obs::Registry::global();
  static FrontendMetrics m{
      r.counter("serve_frontend_submitted_total", "Batches submitted"),
      r.counter("serve_frontend_admitted_total",
                "Batches past admission and breaker"),
      r.counter("serve_frontend_shed_total",
                "Batches shed by the admission budget"),
      r.counter("serve_frontend_shed_breaker_total",
                "Batches shed by the OPEN breaker"),
      r.counter("serve_frontend_completed_total", "Batches completed"),
      r.counter("serve_frontend_refused_total",
                "Admitted batches refused for an invalid query"),
      r.counter("serve_frontend_degraded_total",
                "Batches whose final attempt degraded"),
      r.counter("serve_frontend_degraded_deadline_total",
                "Batches whose final attempt degraded by deadline expiry "
                "(subset of serve_frontend_degraded_total)"),
      r.counter("serve_frontend_retries_total",
                "Attempts beyond each batch's first"),
      r.counter("serve_frontend_breaker_trips_total",
                "CLOSED -> OPEN breaker transitions"),
      r.counter("serve_frontend_breaker_probes_total",
                "HALF_OPEN probes dispatched"),
      r.counter("serve_frontend_sequential_batches_total",
                "Batches served sequentially under the OPEN breaker"),
      r.gauge("serve_frontend_breaker_state",
              "Breaker state (0 CLOSED, 1 OPEN, 2 HALF_OPEN)"),
      r.gauge("serve_frontend_health",
              "Health (0 HEALTHY, 1 DEGRADED, 2 LAME_DUCK)"),
      r.gauge("serve_frontend_inflight_batches",
              "Admitted batches currently in flight"),
      r.histogram("serve_frontend_backoff_ns", obs::latency_bounds_ns(),
                  "Backoff slept (or recorded) before retry attempts, ns"),
      r.histogram("serve_frontend_batch_latency_ns", obs::latency_bounds_ns(),
                  "End-to-end batch wall time including retries, ns"),
  };
  return m;
}

}  // namespace

const char* to_string(HealthState h) {
  switch (h) {
    case HealthState::kHealthy: return "HEALTHY";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kLameDuck: return "LAME_DUCK";
  }
  return "?";
}

namespace {

/// splitmix64: the jitter stream.  Chosen over a stateful RNG so the
/// factor for (seed, batch, attempt) is a pure function — two runs with
/// the same seed produce byte-identical backoff schedules regardless of
/// interleaving.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::chrono::nanoseconds backoff_for(const FrontendOptions& o,
                                     std::uint64_t batch_seq,
                                     std::uint32_t attempt) {
  if (attempt == 0) {
    return std::chrono::nanoseconds{0};
  }
  const std::uint32_t exp = std::min<std::uint32_t>(attempt - 1, 30);
  const std::int64_t base = o.backoff_base.count();
  std::int64_t raw = base;
  if (base > 0 && exp < 63 && base <= (o.backoff_cap.count() >> exp)) {
    raw = base << exp;
  } else {
    raw = o.backoff_cap.count();
  }
  raw = std::min(raw, o.backoff_cap.count());
  // Jitter factor in [0.5, 1): half the nominal value is guaranteed, the
  // other half decorrelates retrying clients.
  const std::uint64_t r = splitmix64(o.jitter_seed ^
                                     splitmix64(batch_seq * 0x9E3779B9ull +
                                                attempt));
  const double factor = 0.5 + 0.5 * (static_cast<double>(r >> 11) /
                                     static_cast<double>(1ull << 53));
  return std::chrono::nanoseconds{
      static_cast<std::int64_t>(static_cast<double>(raw) * factor)};
}

Frontend::Frontend(snapshot::Registry& registry, QueryEngine& engine,
                   FrontendOptions opts)
    : registry_(registry),
      engine_(engine),
      opts_(std::move(opts)),
      breaker_(opts_.breaker_threshold, opts_.breaker_open_for) {}

FrontendStats Frontend::stats() const {
  FrontendStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.breaker = breaker_.state();
  s.consecutive_degraded = breaker_.consecutive_failures();
  s.health = health();
  return s;
}

HealthState Frontend::health() const {
  const BreakerState state = breaker_.state();
  if (state == BreakerState::kOpen) {
    return HealthState::kLameDuck;
  }
  if (state == BreakerState::kHalfOpen ||
      breaker_.consecutive_failures() > 0) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

BreakerState Frontend::breaker_state() const { return breaker_.state(); }

void Frontend::bump(std::uint64_t FrontendStats::* field) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*field);
}

Frontend::Mode Frontend::breaker_admit(std::uint64_t seq) {
  robust::CircuitBreaker::Change change;
  const robust::CircuitBreaker::Pass pass = breaker_.admit(&change);
  if (change.transitioned) {
    note_breaker(seq);
  }
  switch (pass) {
    case robust::CircuitBreaker::Pass::kNormal:
      return Mode::kParallel;
    case robust::CircuitBreaker::Pass::kProbe: {
      frontend_metrics().breaker_probes.inc();
      bump(&FrontendStats::breaker_probes);
      return Mode::kProbe;
    }
    case robust::CircuitBreaker::Pass::kRefused:
      break;  // OPEN, or waiting out the probe
  }
  return opts_.open_policy == OpenPolicy::kSequential ? Mode::kSequentialOnly
                                                      : Mode::kShed;
}

void Frontend::breaker_on_result(Mode mode, bool degraded, std::uint64_t seq) {
  const robust::CircuitBreaker::Change change = breaker_.record(
      mode == Mode::kProbe ? robust::CircuitBreaker::Pass::kProbe
                           : robust::CircuitBreaker::Pass::kNormal,
      !degraded);
  if (change.tripped) {
    frontend_metrics().breaker_trips.inc();
    bump(&FrontendStats::breaker_trips);
  }
  if (change.transitioned) {
    note_breaker(seq);
  } else {
    // No state change, but health follows the degraded streak.
    frontend_metrics().health.set(static_cast<std::int64_t>(health()));
  }
}

void Frontend::note_breaker(std::uint64_t seq) {
  FrontendMetrics& fm = frontend_metrics();
  const BreakerState state = breaker_.state();
  fm.breaker_state.set(static_cast<std::int64_t>(state));
  fm.health.set(static_cast<std::int64_t>(health()));
  // Transitions are rare (one per trip/probe window), so they are traced
  // unconditionally rather than sampled per batch.
  obs::TraceRing::global().emit(seq, obs::SpanKind::kBreaker,
                                static_cast<std::uint32_t>(state));
}

Status Frontend::run_admitted(snapshot::SnapshotKind need,
                              const BatchOptions* batch_override,
                              BatchReport* report,
                              std::uint64_t* served_version,
                              const AttemptFn& attempt) {
  const std::uint64_t seq =
      batch_seq_.fetch_add(1, std::memory_order_relaxed);
  FrontendMetrics& fm = frontend_metrics();
  obs::TraceRing& ring = obs::TraceRing::global();
  const bool traced = ring.sampled(seq);
  fm.submitted.inc();
  bump(&FrontendStats::submitted);

  // Admission: bounded in-flight budget, checked lock-free on the hot
  // path.  Shedding here is the overload contract — the caller gets an
  // immediate, retryable kResourceExhausted instead of a queue slot.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      opts_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    fm.shed.inc();
    if (traced) {
      ring.emit(seq, obs::SpanKind::kShed);
    }
    bump(&FrontendStats::shed);
    return Status::resource_exhausted(
        "admission budget exhausted (" + std::to_string(opts_.max_inflight) +
        " batches in flight); batch shed");
  }
  struct InflightGuard {
    std::atomic<std::size_t>& n;
    obs::Gauge g;
    ~InflightGuard() {
      n.fetch_sub(1, std::memory_order_acq_rel);
      g.add(-1);
    }
  } guard{inflight_, fm.inflight};
  fm.inflight.add(1);
  const auto batch_start = std::chrono::steady_clock::now();

  const Mode mode = breaker_admit(seq);
  if (mode == Mode::kShed) {
    fm.shed_breaker.inc();
    if (traced) {
      ring.emit(seq, obs::SpanKind::kShedBreaker);
    }
    bump(&FrontendStats::shed_breaker);
    return Status::unavailable("circuit breaker open; batch shed");
  }
  fm.admitted.inc();
  if (mode == Mode::kSequentialOnly) {
    fm.sequential.inc();
  }
  if (traced) {
    ring.emit(seq, obs::SpanKind::kAdmit, static_cast<std::uint32_t>(mode));
  }
  bump(&FrontendStats::admitted);
  if (mode == Mode::kSequentialOnly) {
    bump(&FrontendStats::sequential_batches);
  }

  const BatchOptions& opts =
      batch_override != nullptr ? *batch_override : opts_.batch;
  const std::size_t max_attempts =
      mode == Mode::kSequentialOnly ? 1 : opts_.max_retries + 1;

  BatchReport final_report;
  // The trail reuses the caller's report's buffer, so a caller that
  // keeps its report allocates nothing for it per batch.  A batch that
  // ends without an answer hands the buffer back, empty.
  std::vector<BatchAttempt> trail;
  if (report != nullptr) {
    trail.swap(report->attempts);
    trail.clear();
  }
  const auto refuse = [&](Status st) {
    if (report != nullptr) {
      trail.clear();
      report->attempts.swap(trail);
    }
    return st;
  };
  for (std::uint32_t a = 0; a < max_attempts; ++a) {
    std::chrono::nanoseconds back{0};
    if (a > 0) {
      back = backoff_for(opts_, seq, a);
      fm.retries.inc();
      fm.backoff_ns.record(static_cast<std::uint64_t>(back.count()));
      bump(&FrontendStats::retries);
      if (opts_.sleep_on_backoff) {
        std::this_thread::sleep_for(back);
      }
    }
    if (traced) {
      ring.emit(seq, obs::SpanKind::kAttempt, a,
                static_cast<std::uint64_t>(back.count()));
    }
    // A fresh pin per attempt: a retry after a publish (or a rollback)
    // runs against the *new* current snapshot, which is the point of
    // retrying a batch that degraded while the structure was swapping.
    const snapshot::Registry::Pin pin = registry_.pin();
    if (!pin.has_snapshot()) {
      if (mode == Mode::kProbe) {
        breaker_on_result(mode, /*degraded=*/true, seq);
      }
      return refuse(
          Status::unavailable("no snapshot published in the registry"));
    }
    if (pin.snapshot().kind != need ||
        (need == snapshot::SnapshotKind::kPointLocator &&
         !pin.snapshot().pointloc.has_value())) {
      if (mode == Mode::kProbe) {
        breaker_on_result(mode, /*degraded=*/true, seq);
      }
      return refuse(Status::failed_precondition(
          "current snapshot kind does not match the batch type"));
    }
    QueryEngine& eng =
        mode == Mode::kSequentialOnly ? seq_engine_ : engine_;
    AttemptOutcome ran = attempt(eng, pin.snapshot(), opts, seq);
    if (!ran.refusal.ok()) {
      // The batch's own input is refused, so a retry would refuse it
      // again.  The refusal itself is no failure: only a degraded engine
      // run counts against the breaker, and a probe reports its run
      // either way.
      if (mode == Mode::kProbe || ran.report.degraded) {
        breaker_on_result(mode, ran.report.degraded, seq);
      }
      fm.refused.inc();
      bump(&FrontendStats::refused);
      return refuse(std::move(ran.refusal));
    }
    BatchReport r = std::move(ran.report);
    if (r.degraded && traced) {
      ring.emit(seq, obs::SpanKind::kDegraded, a);
    }
    trail.push_back(BatchAttempt{a, r.degraded, r.reason, back, r.cause});
    if (served_version != nullptr) {
      *served_version = pin.version();
    }
    final_report = std::move(r);
    if (!final_report.degraded) {
      break;
    }
  }

  breaker_on_result(mode, final_report.degraded, seq);
  fm.completed.inc();
  bump(&FrontendStats::completed);
  if (final_report.degraded) {
    fm.degraded.inc();
    bump(&FrontendStats::degraded_batches);
    if (final_report.cause == DegradeCause::kDeadline) {
      fm.degraded_deadline.inc();
      bump(&FrontendStats::degraded_deadline);
    }
  }
  const auto latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - batch_start)
          .count());
  fm.batch_latency_ns.record(latency_ns);
  if (traced) {
    ring.emit(seq, obs::SpanKind::kComplete,
              final_report.degraded ? 1u : 0u, latency_ns);
  }
  final_report.attempts = std::move(trail);
  if (report != nullptr) {
    *report = std::move(final_report);
  }
  return coop::OkStatus();
}

namespace {

/// The lowest refused query of a batch whose engine units may run on
/// several threads.  The lock is taken only when a unit reports a fault.
class FaultRecord {
 public:
  void note(const PathFault& f) {
    if (!f) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_ || f.query < first_.query) {
      first_ = f;
    }
  }
  [[nodiscard]] const PathFault& first() const { return first_; }

 private:
  std::mutex mu_;
  PathFault first_;
};

/// One attempt at a path batch of `n` queries: `run_units(first, last)`
/// over the engine units of the batch on the engine, behind the chaos
/// hook; a refused path refuses the batch with validate_path's Status.
template <typename RunUnits>
AttemptOutcome run_path_groups(QueryEngine& eng, std::size_t n,
                               const BatchOptions& opts, std::uint64_t seq,
                               const ChaosHooks* chaos,
                               const RunUnits& run_units) {
  struct Job {
    const ChaosHooks* chaos;
    std::uint64_t seq;
    const RunUnits* run_units;
    FaultRecord faults;
  } job{chaos, seq, &run_units, {}};
  // One captured pointer fits std::function's small buffer: no
  // allocation per batch.
  const QueryEngine::RangeFn fn = [&job](std::size_t first, std::size_t last) {
    if (job.chaos != nullptr && job.chaos->on_item) {
      for (std::size_t gi = first; gi < last; ++gi) {
        job.chaos->on_item(job.seq, gi);
      }
    }
    job.faults.note((*job.run_units)(first, last));
  };
  const std::size_t groups = path_groups(n);
  AttemptOutcome ran;
  try {
    ran.report = eng.for_each_range(groups, fn, opts);
  } catch (const std::exception& e) {
    // The injected exception escaped the engine's worker try/catch —
    // it fired on the inline path (one-thread engine or the engine's
    // own sequential rerun).  The kernel itself never throws, so a
    // clean rerun completes the batch.
    job.faults.note(run_units(0, groups));
    ran.report.degraded = true;
    ran.report.reason = std::string("inline exception: ") + e.what();
    ran.report.cause = DegradeCause::kException;
    ran.report.shards = 1;
    ran.report.threads_used = 1;
  }
  if (job.faults.first()) {
    ran.refusal = job.faults.first().status();
  }
  return ran;
}

}  // namespace

Status Frontend::serve_paths(std::span<const PathRef> queries,
                             PathAnswerSet& out, BatchReport* report,
                             std::uint64_t* served_version,
                             const BatchOptions* batch_override,
                             const ChaosHooks* chaos) {
  struct Batch {
    std::span<const PathRef> queries;
    PathAnswerSet* out;
    const ChaosHooks* chaos;
  } batch{queries, &out, chaos};
  const AttemptFn attempt = [&batch](QueryEngine& eng,
                                     const snapshot::Snapshot& snap,
                                     const BatchOptions& opts,
                                     std::uint64_t seq) -> AttemptOutcome {
    const FlatCascade& f = snap.cascade;
    batch.out->reset(batch.queries);
    return run_path_groups(
        eng, batch.queries.size(), opts, seq, batch.chaos,
        [&](std::size_t first, std::size_t last) {
          return serve_path_units(f, batch.queries, first, last, *batch.out);
        });
  };
  return run_admitted(snapshot::SnapshotKind::kCascade, batch_override, report,
                      served_version, attempt);
}

Status Frontend::serve_paths(std::span<const PathQuery> queries,
                             std::vector<PathAnswer>& out,
                             BatchReport* report,
                             std::uint64_t* served_version,
                             const BatchOptions* batch_override,
                             const ChaosHooks* chaos) {
  struct Batch {
    std::span<const PathQuery> queries;
    std::vector<PathAnswer>* out;
    const ChaosHooks* chaos;
  } batch{queries, &out, chaos};
  const AttemptFn attempt = [&batch](QueryEngine& eng,
                                     const snapshot::Snapshot& snap,
                                     const BatchOptions& opts,
                                     std::uint64_t seq) -> AttemptOutcome {
    const FlatCascade& f = snap.cascade;
    const std::span<const PathQuery> qs = batch.queries;
    batch.out->assign(qs.size(), PathAnswer{});
    return run_path_groups(
        eng, qs.size(), opts, seq, batch.chaos,
        [&](std::size_t first, std::size_t last) {
          const std::size_t begin = first * kPathGroup;
          PathFault fault = search_paths_grouped(
              f, qs.data() + begin,
              std::min(last * kPathGroup, qs.size()) - begin,
              batch.out->data() + begin);
          if (fault) {
            fault.query += begin;
          }
          return fault;
        });
  };
  return run_admitted(snapshot::SnapshotKind::kCascade, batch_override, report,
                      served_version, attempt);
}

Status Frontend::serve_points(std::span<const geom::Point> points,
                              std::vector<std::size_t>& out,
                              BatchReport* report,
                              std::uint64_t* served_version,
                              const BatchOptions* batch_override,
                              const ChaosHooks* chaos) {
  const AttemptFn attempt = [&points, &out, chaos](
                                QueryEngine& eng,
                                const snapshot::Snapshot& snap,
                                const BatchOptions& opts,
                                std::uint64_t seq) -> AttemptOutcome {
    const FlatPointLocator& loc = *snap.pointloc;
    out.assign(points.size(), 0);
    const auto run_one = [&](std::size_t i) { out[i] = loc.locate(points[i]); };
    const std::function<void(std::size_t)> fn = [&](std::size_t i) {
      if (chaos != nullptr && chaos->on_item) {
        chaos->on_item(seq, i);
      }
      run_one(i);
    };
    try {
      return {eng.for_each(points.size(), fn, opts), {}};
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        run_one(i);
      }
      BatchReport r;
      r.degraded = true;
      r.reason = std::string("inline exception: ") + e.what();
      r.cause = DegradeCause::kException;
      r.shards = 1;
      r.threads_used = 1;
      return {std::move(r), {}};
    }
  };
  return run_admitted(snapshot::SnapshotKind::kPointLocator, batch_override,
                      report,
                      served_version, attempt);
}

coop::Status Frontend::serve_dyn_paths(dyn::DynamicCatalog& cat,
                                       std::span<const PathRef> queries,
                                       dyn::PathKeySet& out,
                                       std::uint64_t* served_version,
                                       std::uint64_t* write_seq,
                                       const BatchOptions* batch_override) {
  FrontendMetrics& fm = frontend_metrics();
  fm.submitted.inc();
  bump(&FrontendStats::submitted);
  // Reads and writes share one admission budget: the dyn plane sheds
  // under overload with the identical contract as the static plane.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      opts_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    fm.shed.inc();
    bump(&FrontendStats::shed);
    return Status::resource_exhausted(
        "admission budget exhausted (" + std::to_string(opts_.max_inflight) +
        " batches in flight); batch shed");
  }
  struct InflightGuard {
    std::atomic<std::size_t>& n;
    obs::Gauge g;
    ~InflightGuard() {
      n.fetch_sub(1, std::memory_order_acq_rel);
      g.add(-1);
    }
  } guard{inflight_, fm.inflight};
  fm.inflight.add(1);
  fm.admitted.inc();
  bump(&FrontendStats::admitted);
  const auto start = std::chrono::steady_clock::now();

  // One immutable State for the whole batch: the overlay's consistency
  // unit (base pin + run lists together); a bare registry pin would let
  // answers mix generations with the wrong run sets.
  const dyn::StatePtr state = cat.state();
  if (state == nullptr || state->base == nullptr) {
    return Status::unavailable("dynamic catalog has no serving state");
  }
  const BatchOptions& bopts =
      batch_override != nullptr ? *batch_override : opts_.batch;
  if (bopts.deadline.count() > 0 &&
      std::chrono::steady_clock::now() - start >= bopts.deadline) {
    return Status::deadline_exceeded("dyn batch deadline expired before the "
                                     "merge pass started");
  }
  if (const PathFault fault = dyn::search_paths_dyn(*state, queries, out);
      fault) {
    return fault.status();
  }
  if (served_version != nullptr) {
    *served_version = state->base->version;
  }
  if (write_seq != nullptr) {
    *write_seq = state->write_seq;
  }
  fm.completed.inc();
  fm.batch_latency_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  bump(&FrontendStats::completed);
  return coop::OkStatus();
}

/// The write-path admission preamble shared by apply_mutations and
/// apply_runs, then the overlay call under the in-flight guard.
template <typename Fn>
Status Frontend::apply_admitted(std::uint64_t* ack_seq, const Fn& fn) {
  FrontendMetrics& fm = frontend_metrics();
  fm.submitted.inc();
  bump(&FrontendStats::submitted);
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      opts_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    fm.shed.inc();
    bump(&FrontendStats::shed);
    return Status::resource_exhausted(
        "admission budget exhausted (" + std::to_string(opts_.max_inflight) +
        " batches in flight); mutation batch shed");
  }
  struct InflightGuard {
    std::atomic<std::size_t>& n;
    obs::Gauge g;
    ~InflightGuard() {
      n.fetch_sub(1, std::memory_order_acq_rel);
      g.add(-1);
    }
  } guard{inflight_, fm.inflight};
  fm.inflight.add(1);
  fm.admitted.inc();
  bump(&FrontendStats::admitted);
  coop::Expected<std::uint64_t> ack = fn();
  if (!ack.ok()) {
    return ack.status();
  }
  if (ack_seq != nullptr) {
    *ack_seq = *ack;
  }
  fm.completed.inc();
  bump(&FrontendStats::completed);
  return coop::OkStatus();
}

coop::Status Frontend::apply_mutations(dyn::DynamicCatalog& cat,
                                       std::span<const dyn::Mutation> muts,
                                       std::uint64_t* ack_seq) {
  return apply_admitted(ack_seq, [&] { return cat.apply(muts); });
}

coop::Status Frontend::apply_runs(dyn::DynamicCatalog& cat,
                                  std::vector<dyn::Run> runs,
                                  std::uint64_t* ack_seq) {
  return apply_admitted(ack_seq,
                        [&] { return cat.apply_runs(std::move(runs)); });
}

}  // namespace serve
