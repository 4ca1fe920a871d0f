#include "snapshot/registry.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace snapshot {

using coop::Status;

namespace {

/// Registry metrics (DESIGN.md §10).  The pin/release pair is the only
/// per-batch path here: one relaxed gauge add each way.  Everything else
/// fires on publish / rollback / drain, i.e. per *generation*.
struct RegistryMetrics {
  obs::Counter publishes;
  obs::Counter rollbacks;
  obs::Counter drained;
  obs::Gauge pinned;
  obs::Gauge retained;
  obs::Gauge retired;
};

RegistryMetrics& registry_metrics() {
  auto& r = obs::Registry::global();
  static RegistryMetrics m{
      r.counter("snapshot_publishes_total", "Generations published"),
      r.counter("snapshot_rollbacks_total", "Successful rollbacks"),
      r.counter("snapshot_retired_drained_total",
                "Retired generations reclaimed (unmapped) after readers "
                "drained"),
      r.gauge("snapshot_pinned_readers", "Currently pinned readers"),
      r.gauge("snapshot_retained_generations",
              "Generations in the keep window (incl. current)"),
      r.gauge("snapshot_retired_generations",
              "Retired generations awaiting reader drain"),
  };
  return m;
}

}  // namespace

Registry::~Registry() {
  // No pins may outlive the registry (they hold a raw pointer into it);
  // by then every generation is reclaimable.  current_owner_ / kept_ /
  // retired_ own every Versioned, so members clean up.
  current_.store(nullptr, std::memory_order_release);
}

const Snapshot& Registry::Pin::snapshot() const {
  return static_cast<const Registry::Versioned*>(versioned_)->snap;
}

std::uint64_t Registry::Pin::version() const {
  return versioned_ == nullptr
             ? 0
             : static_cast<const Registry::Versioned*>(versioned_)->version;
}

void Registry::Pin::release() {
  if (registry_ == nullptr) {
    return;
  }
  const Registry* r = std::exchange(registry_, nullptr);
  // Clear the version claim before freeing the slot: a slot with
  // epoch == kFree never blocks reclamation regardless of its stale
  // pinned_version, and the next claimer re-zeroes it anyway.
  r->slots_[slot_].pinned_version.store(0, std::memory_order_release);
  r->slots_[slot_].epoch.store(kFree, std::memory_order_release);
  versioned_ = nullptr;
  registry_metrics().pinned.add(-1);
  // The publisher reclaims on publish; releasing the (possibly last) pin
  // reclaims too, so retired arenas drain without waiting for traffic.
  r->reclaim();
}

Registry::Pin Registry::pin() const {
  // Acquire a free announcement slot.  Pins are per batch, so more than
  // kMaxPins concurrent batches means the caller is oversubscribed
  // anyway; back off until a slot frees rather than failing the batch.
  std::size_t slot = 0;
  for (;;) {
    bool claimed = false;
    for (std::size_t i = 0; i < kMaxPins; ++i) {
      std::uint64_t expected = kFree;
      if (slots_[i].epoch.compare_exchange_strong(
              expected, kClaiming, std::memory_order_acq_rel)) {
        // Zero any stale claim from the previous occupant before the
        // announce: until our own version is stored below, reclaim must
        // fall back to the conservative epoch-only rule for this slot.
        slots_[i].pinned_version.store(0, std::memory_order_release);
        slot = i;
        claimed = true;
        break;
      }
    }
    if (claimed) {
      break;
    }
    std::this_thread::yield();
  }
  // Announce the current epoch, then re-check it: once the double-read
  // agrees, either we announced before any concurrent retire (epoch <= r
  // keeps the old version alive for us) or after the bump (the read
  // below is guaranteed to see the new `current_`).
  for (;;) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    slots_[slot].epoch.store(e, std::memory_order_seq_cst);
    if (global_epoch_.load(std::memory_order_seq_cst) == e) {
      break;
    }
  }
  Pin p;
  p.registry_ = this;
  p.slot_ = slot;
  p.versioned_ = current_.load(std::memory_order_seq_cst);
  if (p.versioned_ == nullptr) {
    // Nothing published yet: hand back an empty pin (slot released now).
    slots_[slot].epoch.store(kFree, std::memory_order_release);
    p.registry_ = nullptr;
  } else {
    // Publish which generation this slot holds.  The pin reads only
    // this snapshot for its whole life, so reclaim may free any *other*
    // retired generation past this slot's epoch.  A retire racing this
    // store sees either 0 (conservative: epoch rule applies) or the
    // exact version (protected by the version rule) — never a lie.
    slots_[slot].pinned_version.store(
        static_cast<const Versioned*>(p.versioned_)->version,
        std::memory_order_seq_cst);
    registry_metrics().pinned.add(1);
  }
  return p;
}

std::uint64_t Registry::publish(Snapshot snap) {
  auto v = std::make_unique<Versioned>();
  v->snap = std::move(snap);
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(retire_mutex_);
    version = next_version_++;
    v->version = version;
    current_.store(v.get(), std::memory_order_seq_cst);
    std::unique_ptr<Versioned> old = std::exchange(current_owner_,
                                                   std::move(v));
    if (old != nullptr) {
      // The displaced generation stays mapped in the keep window as a
      // rollback target; only keep-window overflow is retired.  Readers
      // pinned to it are protected either way: kept_ owns it, and the
      // retire path below stamps an epoch before any unmap.
      retain_locked(std::move(old));
    }
    registry_metrics().retained.set(static_cast<std::int64_t>(
        kept_.size() + 1));
  }
  registry_metrics().publishes.inc();
  obs::TraceRing::global().emit(version, obs::SpanKind::kPublish);
  reclaim();
  return version;
}

void Registry::retire_locked(std::unique_ptr<Versioned> v) {
  // Epoch at retire time: readers announced at <= this value may still
  // hold `v`; readers announcing later cannot obtain it.
  const std::uint64_t retire_epoch =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  retired_.emplace_back(retire_epoch, std::move(v));
}

void Registry::retain_locked(std::unique_ptr<Versioned> v) {
  kept_.push_back(std::move(v));
  while (kept_.size() > kKeepGenerations) {
    // Spill the oldest keepable generation — but never the newest good
    // one, or a long publish storm would starve the scrubber of its
    // rollback target.
    std::uint64_t newest_good = 0;
    for (const auto& k : kept_) {
      if (k->good) {
        newest_good = std::max(newest_good, k->version);
      }
    }
    std::size_t spill = kept_.size();
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (kept_[i]->version != newest_good) {
        spill = i;
        break;
      }
    }
    if (spill == kept_.size()) {
      break;  // only the protected generation left
    }
    std::unique_ptr<Versioned> out = std::move(kept_[spill]);
    kept_.erase(kept_.begin() + static_cast<std::ptrdiff_t>(spill));
    retire_locked(std::move(out));
  }
}

void Registry::mark_good(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  if (current_owner_ != nullptr && current_owner_->version == version) {
    current_owner_->good = true;
    return;
  }
  for (auto& k : kept_) {
    if (k->version == version) {
      k->good = true;
      return;
    }
  }
}

std::uint64_t Registry::last_known_good(std::uint64_t excluding) const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  std::uint64_t best = 0;
  if (current_owner_ != nullptr && current_owner_->good &&
      current_owner_->version != excluding) {
    best = current_owner_->version;
  }
  for (const auto& k : kept_) {
    if (k->good && k->version != excluding) {
      best = std::max(best, k->version);
    }
  }
  return best;
}

Status Registry::rollback(std::uint64_t to_version, std::uint64_t if_current) {
  {
    std::lock_guard<std::mutex> lock(retire_mutex_);
    if (current_owner_ == nullptr) {
      return Status::failed_precondition("rollback on an empty registry");
    }
    if (if_current != 0 && current_owner_->version != if_current) {
      return Status::failed_precondition(
          "rollback lost the race: current is version " +
          std::to_string(current_owner_->version) + ", not " +
          std::to_string(if_current));
    }
    if (current_owner_->version == to_version) {
      return coop::OkStatus();  // already serving the target
    }
    std::size_t idx = kept_.size();
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (kept_[i]->version == to_version) {
        idx = i;
        break;
      }
    }
    if (idx == kept_.size()) {
      return Status::failed_precondition(
          "generation " + std::to_string(to_version) +
          " is not retained (keep window holds the last " +
          std::to_string(kKeepGenerations) + ")");
    }
    std::unique_ptr<Versioned> target = std::move(kept_[idx]);
    kept_.erase(kept_.begin() + static_cast<std::ptrdiff_t>(idx));
    current_.store(target.get(), std::memory_order_seq_cst);
    std::unique_ptr<Versioned> bad =
        std::exchange(current_owner_, std::move(target));
    // Quarantine: the displaced generation must never be a rollback
    // target again, and its mapping goes away as soon as pinned readers
    // of it drain.
    bad->good = false;
    retire_locked(std::move(bad));
    registry_metrics().retained.set(static_cast<std::int64_t>(
        kept_.size() + 1));
  }
  registry_metrics().rollbacks.inc();
  obs::TraceRing::global().emit(if_current, obs::SpanKind::kRollback, 0,
                                to_version);
  reclaim();
  return coop::OkStatus();
}

std::size_t Registry::retained_count() const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  return kept_.size() + (current_owner_ != nullptr ? 1 : 0);
}

void Registry::reclaim() const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  if (retired_.empty()) {
    return;
  }
  // Snapshot the announced readers once: (epoch, pinned version) pairs.
  // kClaiming counts as quiescent: the claimer has not read `current_`
  // yet, and its announce/re-check loop forces it onto the newest epoch
  // before it does.  Reading epoch then pinned_version per slot is safe
  // against releases/re-claims in between: a stale-epoch/fresh-version
  // mix can only name a version the new occupant actually holds (kept,
  // conservative) or one it provably does not (freed, correct).
  struct Announced {
    std::uint64_t epoch = 0;
    std::uint64_t version = 0;  ///< 0 = unknown, protect by epoch alone
  };
  Announced readers[kMaxPins];
  std::size_t n_readers = 0;
  for (const ReaderSlot& s : slots_) {
    const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e != kFree && e != kClaiming) {
      readers[n_readers].epoch = e;
      readers[n_readers].version =
          s.pinned_version.load(std::memory_order_seq_cst);
      ++n_readers;
    }
  }
  const std::size_t before = retired_.size();
  std::erase_if(retired_, [&](const auto& r) {
    // Freeable iff no announced reader can still hold it: a reader
    // announced after the retire epoch provably read a newer current_;
    // one announced before it is harmless when its version claim names
    // a different generation (a pin never re-reads current_).  An
    // unknown claim (0, mid-handshake) falls back to the epoch rule.
    for (std::size_t i = 0; i < n_readers; ++i) {
      const Announced& a = readers[i];
      const bool epoch_safe = a.epoch > r.first;
      const bool version_safe =
          a.version != 0 && a.version != r.second->version;
      if (!epoch_safe && !version_safe) {
        return false;
      }
    }
    return true;  // destroys the Versioned -> unmaps
  });
  RegistryMetrics& rm = registry_metrics();
  if (const std::size_t gone = before - retired_.size(); gone > 0) {
    rm.drained.add(gone);
  }
  rm.retired.set(static_cast<std::int64_t>(retired_.size()));
}

std::size_t Registry::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mutex_);
  return retired_.size();
}

Status serve_path_queries(const Registry& registry,
                          serve::QueryEngine& engine,
                          std::span<const serve::PathQuery> queries,
                          serve::PathAnswerSet& out,
                          serve::BatchReport* report,
                          std::uint64_t* served_version,
                          const serve::BatchOptions& opts) {
  const Registry::Pin pin = registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition(
        "no snapshot published in the registry");
  }
  if (pin.snapshot().kind != SnapshotKind::kCascade) {
    return Status::failed_precondition(
        "current snapshot is not a cascade (path queries need kCascade)");
  }
  const serve::BatchReport r =
      serve::serve_path_queries(pin.snapshot().cascade, engine, queries, out,
                                opts);
  if (report != nullptr) {
    *report = r;
  }
  if (served_version != nullptr) {
    *served_version = pin.version();
  }
  return coop::OkStatus();
}

Status serve_point_queries(const Registry& registry,
                           serve::QueryEngine& engine,
                           std::span<const geom::Point> points,
                           std::vector<std::size_t>& out,
                           serve::BatchReport* report,
                           std::uint64_t* served_version,
                           const serve::BatchOptions& opts) {
  const Registry::Pin pin = registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition(
        "no snapshot published in the registry");
  }
  if (pin.snapshot().kind != SnapshotKind::kPointLocator ||
      !pin.snapshot().pointloc.has_value()) {
    return Status::failed_precondition(
        "current snapshot is not a point locator (point queries need "
        "kPointLocator)");
  }
  const serve::BatchReport r = serve::serve_point_queries(
      *pin.snapshot().pointloc, engine, points, out, opts);
  if (report != nullptr) {
    *report = r;
  }
  if (served_version != nullptr) {
    *served_version = pin.version();
  }
  return coop::OkStatus();
}

}  // namespace snapshot
