#include "dyn/overlay.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>

#include "dyn/wal.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"

namespace dyn {

using coop::Status;

namespace {

/// Dynamic-catalog metrics (DESIGN.md §13).  Writers touch counters per
/// *batch*, not per mutation; gauges snapshot the post-swap state.
struct DynMetrics {
  obs::Counter mutations;
  obs::Counter runs;
  obs::Counter merges;
  obs::Counter compactions;
  obs::Counter truncated;
  obs::Gauge depth;
  obs::Gauge pending;
  obs::Gauge touched_nodes;
};

DynMetrics& dyn_metrics() {
  auto& r = obs::Registry::global();
  static DynMetrics m{
      r.counter("dyn_mutations_applied_total", "Mutations acknowledged"),
      r.counter("dyn_runs_appended_total", "Delta runs appended"),
      r.counter("dyn_run_merges_total",
                "In-memory newest-wins merges of a node's run list"),
      r.counter("dyn_compactions_installed_total",
                "Compacted generations installed as the new base"),
      r.counter("dyn_runs_truncated_total",
                "Runs dropped at the compaction watermark"),
      r.gauge("dyn_overlay_depth", "Max runs layered on any node"),
      r.gauge("dyn_pending_mutations",
              "Mutations above the compaction watermark"),
      r.gauge("dyn_touched_nodes", "Nodes with at least one run"),
  };
  return m;
}

void set_state_gauges(const State& s) {
  DynMetrics& m = dyn_metrics();
  m.depth.set(static_cast<std::int64_t>(s.max_depth));
  m.pending.set(static_cast<std::int64_t>(s.pending));
  m.touched_nodes.set(static_cast<std::int64_t>(s.touched));
}

/// Move one node's run-list length from `from` to `to` in the State's
/// per-depth node count, keeping `touched` and `max_depth` exact.
void recount_depth(State& s, std::size_t from, std::size_t to) {
  if (from > 0) {
    --s.depth_nodes[from];
    --s.touched;
  }
  if (to > 0) {
    if (s.depth_nodes.size() <= to) {
      s.depth_nodes.resize(to + 1, 0);
    }
    ++s.depth_nodes[to];
    ++s.touched;
    s.max_depth = std::max(s.max_depth, to);
  }
  while (s.max_depth > 0 && s.depth_nodes[s.max_depth] == 0) {
    --s.max_depth;
  }
}

/// Run lists up to this long keep their merge cursors on the stack; only
/// longer ones (merge_threshold above it) allocate.
constexpr std::size_t kInlineCursors = 16;

/// Newest-wins merge of one node's base keys and run list, walking the
/// live keys upward from the first key >= y.  The +inf sentinel ends
/// every walk: runs never mention it and it is always live in the base.
class LiveMerge {
 public:
  LiveMerge(std::span<const Key> base, std::size_t bi,
            std::span<const RunPtr> runs, Key y)
      : base_(base.data() + bi) {
    cur_ = runs.size() <= kInlineCursors
               ? inline_.data()
               : (heap_ = std::make_unique<Cursor[]>(runs.size())).get();
    for (const RunPtr& r : runs) {
      const RunEntry* end = r->entries.data() + r->entries.size();
      const RunEntry* at =
          std::lower_bound(r->entries.data(), end, y,
                           [](const RunEntry& e, Key k) { return e.key < k; });
      if (at != end) {
        cur_[n_++] = {at, end};
      }
    }
  }

  /// The next live key; kInfinity once the walk reaches the sentinel.
  Key next() {
    for (;;) {
      Key cand = *base_;
      for (std::size_t k = 0; k < n_; ++k) {
        if (cur_[k].at != cur_[k].end) {
          cand = std::min(cand, cur_[k].at->key);
        }
      }
      if (cand == cat::kInfinity) {
        return cand;
      }
      // Newest run holding `cand` decides liveness; base only decides
      // when no run mentions it.  Every cursor sitting on `cand` advances,
      // so a tombstoned (or already-shadowed) `cand` is never seen again.
      bool decided = false;
      bool live = false;
      for (std::size_t k = n_; k-- > 0;) {
        Cursor& c = cur_[k];
        if (c.at != c.end && c.at->key == cand) {
          if (!decided) {
            decided = true;
            live = c.at->tombstone == 0;
          }
          ++c.at;
        }
      }
      if (*base_ == cand) {
        live = live || !decided;
        ++base_;
      }
      if (live) {
        return cand;
      }
    }
  }

 private:
  struct Cursor {
    const RunEntry* at;
    const RunEntry* end;
  };
  const Key* base_;  ///< never passes the +inf sentinel
  std::array<Cursor, kInlineCursors> inline_;
  std::unique_ptr<Cursor[]> heap_;
  Cursor* cur_;
  std::size_t n_ = 0;
};

/// Newest-wins merge of one node's whole run list into a single run.
/// Tombstones are preserved — they may still shadow base keys — which is
/// exactly what keeps watermark truncation sound: entries at or below
/// the watermark that survive in a merged run re-assert values already
/// baked into the base (set semantics make the replay idempotent).
Run merge_runs(const std::vector<RunPtr>& list) {
  Run out;
  out.node = list.front()->node;
  out.min_seq = list.front()->min_seq;
  out.max_seq = list.front()->max_seq;
  std::vector<std::size_t> cur(list.size(), 0);
  std::size_t total = 0;
  for (const RunPtr& r : list) {
    out.min_seq = std::min(out.min_seq, r->min_seq);
    out.max_seq = std::max(out.max_seq, r->max_seq);
    total += r->entries.size();
  }
  out.entries.reserve(total);
  for (;;) {
    Key cand = cat::kInfinity;
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (cur[k] < list[k]->entries.size()) {
        cand = std::min(cand, list[k]->entries[cur[k]].key);
      }
    }
    if (cand == cat::kInfinity) {
      break;
    }
    // Newest run holding `cand` decides (the list is oldest-first, so
    // the first match scanning from the back wins); every holder
    // advances its cursor past `cand`.
    RunEntry winner{cand, 0};
    bool decided = false;
    for (std::size_t k = list.size(); k-- > 0;) {
      if (cur[k] < list[k]->entries.size() &&
          list[k]->entries[cur[k]].key == cand) {
        if (!decided) {
          winner = list[k]->entries[cur[k]];
          decided = true;
        }
        ++cur[k];
      }
    }
    out.entries.push_back(winner);
  }
  return out;
}

std::size_t num_chunks(std::size_t num_nodes) {
  return (num_nodes + kChunkNodes - 1) / kChunkNodes;
}

}  // namespace

ProperIndex ProperIndex::build(const serve::FlatCascade& flat) {
  ProperIndex idx;
  const std::size_t n = flat.num_nodes();
  idx.offsets_.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    // Proper size = proper index of the +inf terminal + 1 (the terminal
    // is itself a proper entry, so this covers the whole catalog).
    const std::uint32_t count =
        flat.to_proper(v, flat.node(v).key_count - 1) + 1;
    idx.offsets_[v + 1] = idx.offsets_[v] + count;
  }
  idx.keys_.assign(idx.offsets_.back(), 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t count = flat.node(v).key_count;
    Key* out = idx.keys_.data() + idx.offsets_[v];
    // Ascending scan: the last aug key mapping to proper index p is the
    // proper key itself (aug ⊇ proper), so overwrite-in-order lands it.
    for (std::uint32_t i = 0; i < count; ++i) {
      out[flat.to_proper(v, i)] = flat.key(v, i);
    }
  }
  return idx;
}

Key State::live_successor(std::uint32_t node, Key y,
                          std::uint32_t base_hint) const {
  const std::span<const Key> bk = base->proper.node_keys(node);
  const std::size_t bi =
      base_hint != ~0u
          ? base_hint
          : static_cast<std::size_t>(
                std::lower_bound(bk.begin(), bk.end(), y) - bk.begin());
  const std::span<const RunPtr> rl = node_runs(node);
  if (rl.empty()) {
    return bk[bi];
  }
  return LiveMerge(bk, bi, rl, y).next();
}

std::vector<Key> State::live_keys(std::uint32_t node) const {
  const std::span<const Key> bk = base->proper.node_keys(node);
  std::vector<Key> out;
  const std::span<const RunPtr> rl = node_runs(node);
  if (rl.empty()) {
    out.assign(bk.begin(), bk.end() - 1);  // strip the +inf sentinel
    return out;
  }
  LiveMerge merge(bk, 0, rl, std::numeric_limits<Key>::min());
  for (Key k = merge.next(); k != cat::kInfinity; k = merge.next()) {
    out.push_back(k);
  }
  return out;
}

namespace {

/// One engine unit of search_paths_dyn: the base kernel answers every
/// (query, node) with a base proper index, written into `scratch` — on
/// the no-delta path this is the whole cost apart from one ProperIndex
/// load per hop — then query q's live keys go to out[q].  Nothing is
/// written to `out` for a refused unit.
serve::PathFault search_group_dyn(const State& state, const serve::PathRef* qs,
                                  std::size_t g,
                                  std::vector<std::uint32_t>& scratch,
                                  Key* const* out) {
  std::size_t total = 0;
  for (std::size_t q = 0; q < g; ++q) {
    total += qs[q].len;
  }
  scratch.resize(2 * total);
  std::uint32_t* aug[serve::kPathRun];
  std::uint32_t* hints[serve::kPathRun];
  std::size_t off = 0;
  for (std::size_t q = 0; q < g; ++q) {
    aug[q] = scratch.data() + off;
    hints[q] = scratch.data() + total + off;
    off += qs[q].len;
  }
  if (const serve::PathFault fault = serve::search_paths_grouped_into(
          state.base->flat(), qs, g, aug, hints);
      fault) {
    return fault;
  }
  // Per hop, two loads decide whether the node has runs; only nodes that
  // do pay the merge.
  const ProperIndex& proper = state.base->proper;
  for (std::size_t q = 0; q < g; ++q) {
    const serve::PathRef& pq = qs[q];
    for (std::size_t step = 0; step < pq.len; ++step) {
      const auto node = static_cast<std::uint32_t>(pq.path[step]);
      const std::span<const Key> bk = proper.node_keys(node);
      const std::span<const RunPtr> rl = state.node_runs(node);
      out[q][step] = rl.empty()
                         ? bk[hints[q][step]]
                         : LiveMerge(bk, hints[q][step], rl, pq.y).next();
    }
  }
  return {};
}

}  // namespace

serve::PathFault search_paths_dyn(const State& state,
                                  std::span<const serve::PathRef> queries,
                                  PathKeySet& out) {
  out.reset(queries);
  for (std::size_t at = 0; at < queries.size(); at += serve::kPathRun) {
    const std::size_t g = std::min(serve::kPathRun, queries.size() - at);
    Key* keys[serve::kPathRun];
    for (std::size_t q = 0; q < g; ++q) {
      keys[q] = out.keys_data(at + q);
    }
    serve::PathFault fault =
        search_group_dyn(state, queries.data() + at, g, out.scratch_, keys);
    if (fault) {
      fault.query += at;
      return fault;
    }
  }
  return {};
}

serve::PathFault search_paths_dyn(const State& state,
                                  std::span<const serve::PathQuery> queries,
                                  PathKeys* out) {
  std::vector<std::uint32_t> scratch;
  for (std::size_t at = 0; at < queries.size(); at += serve::kPathRun) {
    const std::size_t g = std::min(serve::kPathRun, queries.size() - at);
    serve::PathRef refs[serve::kPathRun];
    Key* keys[serve::kPathRun];
    for (std::size_t q = 0; q < g; ++q) {
      refs[q] = serve::path_ref(queries[at + q]);
      out[at + q].keys.resize(refs[q].len);
      keys[q] = out[at + q].keys.data();
    }
    serve::PathFault fault = search_group_dyn(state, refs, g, scratch, keys);
    if (fault) {
      fault.query += at;
      return fault;
    }
  }
  return {};
}

coop::Expected<std::unique_ptr<DynamicCatalog>> DynamicCatalog::attach(
    snapshot::Registry& registry, Options opts) {
  snapshot::Registry::Pin pin = registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition(
        "dynamic catalog needs a published generation to attach to");
  }
  if (pin.snapshot().kind != snapshot::SnapshotKind::kCascade) {
    return Status::failed_precondition(
        "dynamic catalog attaches to a cascade snapshot (got a different "
        "kind)");
  }
  auto base = std::make_shared<State::Base>();
  base->proper = ProperIndex::build(pin.snapshot().cascade);
  base->version = pin.version();
  base->pin = std::move(pin);
  auto st = std::make_shared<State>();
  st->chunks.resize(num_chunks(base->proper.num_nodes()));
  st->base = std::move(base);
  std::unique_ptr<DynamicCatalog> cat(new DynamicCatalog(registry, opts));
  cat->state_ = std::move(st);
  return cat;
}

DynamicCatalog::DynamicCatalog(snapshot::Registry& registry, Options opts)
    : registry_(&registry), opts_(opts) {}

DynamicCatalog::~DynamicCatalog() = default;

StatePtr DynamicCatalog::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void DynamicCatalog::attach_wal(std::unique_ptr<Wal> wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = std::move(wal);
}

coop::Status DynamicCatalog::restore_durable(std::uint64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_->write_seq != 0 || state_->watermark != 0 ||
      state_->touched != 0) {
    return Status::failed_precondition(
        "restore_durable needs a virgin catalog (write_seq " +
        std::to_string(state_->write_seq) + ", watermark " +
        std::to_string(state_->watermark) + ", " +
        std::to_string(state_->touched) + " touched nodes)");
  }
  auto next = std::make_shared<State>(*state_);
  next->write_seq = watermark;
  next->watermark = watermark;
  state_ = std::move(next);
  return coop::OkStatus();
}

coop::Expected<std::uint64_t> DynamicCatalog::apply(
    std::span<const Mutation> muts) {
  if (muts.size() > opts_.max_batch) {
    return Status::invalid_argument(
        "mutation batch of " + std::to_string(muts.size()) +
        " exceeds max_batch " + std::to_string(opts_.max_batch));
  }
  for (const Mutation& m : muts) {
    if (m.key == cat::kInfinity) {
      return Status::invalid_argument(
          "mutation targets the +inf sentinel, which is structural and "
          "immutable");
    }
    if (m.op != Op::kInsert && m.op != Op::kDelete) {
      return Status::invalid_argument("mutation op byte " +
                                      std::to_string(std::uint8_t(m.op)) +
                                      " is neither insert nor delete");
    }
  }
  return apply_runs(runs_from_mutations(muts));
}

std::uint64_t DynamicCatalog::commit_runs_locked(std::vector<Run>&& runs) {
  // Copy only the chunk-pointer vector; each chunk this batch touches is
  // cloned once, on first touch, and every other chunk stays shared.
  auto next = std::make_shared<State>(*state_);
  std::vector<RunChunk*> cloned(next->chunks.size(), nullptr);
  std::uint64_t seq = next->write_seq;
  std::size_t added = 0;
  std::size_t appended = 0;
  std::size_t merged = 0;
  for (Run& r : runs) {
    if (r.entries.empty()) {
      continue;
    }
    seq = r.max_seq;  // stamps are contiguous; callers validated them
    added += r.entries.size();
    ++appended;
    const std::size_t c = r.node / kChunkNodes;
    if (cloned[c] == nullptr) {
      auto fresh = next->chunks[c] != nullptr
                       ? std::make_shared<RunChunk>(*next->chunks[c])
                       : std::make_shared<RunChunk>();
      cloned[c] = fresh.get();
      next->chunks[c] = std::move(fresh);
    }
    std::vector<RunPtr>& list = cloned[c]->lists[r.node % kChunkNodes];
    const std::size_t before = list.size();
    list.push_back(std::make_shared<const Run>(std::move(r)));
    if (list.size() > opts_.merge_threshold) {
      Run m = merge_runs(list);
      list.clear();
      list.push_back(std::make_shared<const Run>(std::move(m)));
      ++merged;
    }
    recount_depth(*next, before, list.size());
  }
  next->write_seq = seq;
  next->pending += added;
  applied_total_ += added;
  merges_total_ += merged;
  DynMetrics& m = dyn_metrics();
  m.mutations.add(static_cast<std::int64_t>(added));
  m.runs.add(static_cast<std::int64_t>(appended));
  m.merges.add(static_cast<std::int64_t>(merged));
  set_state_gauges(*next);
  state_ = std::move(next);
  return seq;
}

coop::Expected<std::uint64_t> DynamicCatalog::apply_runs(
    std::vector<Run> runs) {
  for (const Run& r : runs) {
    if (Status st = validate_run(r); !st.ok()) {
      return st;
    }
  }
  std::uint64_t ack = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t num_nodes = state_->base->proper.num_nodes();
    for (const Run& r : runs) {
      if (r.node >= num_nodes) {
        return Status::invalid_argument(
            "mutation targets node " + std::to_string(r.node) +
            " of a tree with " + std::to_string(num_nodes) + " nodes");
      }
    }
    std::uint64_t seq = state_->write_seq;
    for (Run& r : runs) {
      if (r.entries.empty()) {
        continue;
      }
      r.min_seq = seq + 1;
      seq += r.entries.size();
      r.max_seq = seq;
    }
    if (wal_ != nullptr) {
      // Log before the State swap: a rejected append leaves the overlay
      // untouched, so the write fails cleanly instead of existing in
      // memory but not in the log.
      if (Status st = wal_->append(runs); !st.ok()) {
        return st;
      }
    }
    ack = commit_runs_locked(std::move(runs));
  }
  if (wal_ != nullptr) {
    // Outside mu_: the fsync (or the wait for a leader's fsync) must not
    // stall other writers' State swaps — that is the whole point of
    // group commit.  On error the batch is visible to readers but its
    // durability is indeterminate; the caller must not ack it.
    if (Status st = wal_->wait_durable(ack); !st.ok()) {
      return st;
    }
  }
  return ack;
}

coop::Expected<std::uint64_t> DynamicCatalog::apply_recovered(
    std::vector<Run> runs) {
  for (const Run& r : runs) {
    if (Status st = validate_run(r); !st.ok()) {
      return st;
    }
    if (r.entries.empty()) {
      return Status::corrupted(
          "recovered run for node " + std::to_string(r.node) +
          " has no entries (the log never records empty runs)");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t num_nodes = state_->base->proper.num_nodes();
  std::uint64_t expect = state_->write_seq;
  for (const Run& r : runs) {
    if (r.node >= num_nodes) {
      return Status::corrupted(
          "recovered run targets node " + std::to_string(r.node) +
          " of a tree with " + std::to_string(num_nodes) + " nodes");
    }
    if (r.min_seq != expect + 1) {
      return Status::corrupted(
          "recovered run seq range [" + std::to_string(r.min_seq) + ", " +
          std::to_string(r.max_seq) + "] does not continue from seq " +
          std::to_string(expect) +
          " (duplicate, regressed, or gapped write-ahead log)");
    }
    if (r.max_seq - r.min_seq + 1 != r.entries.size()) {
      return Status::corrupted(
          "recovered run seq range [" + std::to_string(r.min_seq) + ", " +
          std::to_string(r.max_seq) + "] disagrees with its " +
          std::to_string(r.entries.size()) + " entries");
    }
    expect = r.max_seq;
  }
  return commit_runs_locked(std::move(runs));
}

coop::Expected<std::uint64_t> DynamicCatalog::install_compacted(
    snapshot::Snapshot snap, std::uint64_t watermark,
    const std::string& base_file) {
  Wal* wal = nullptr;  // set once at startup, stable after attach_wal
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wal = wal_.get();
    if (wal != nullptr && base_file.empty()) {
      return Status::failed_precondition(
          "a durable catalog only installs spooled compactions: pass the "
          "base filename from Wal::base_path_for");
    }
    if (watermark > state_->write_seq) {
      return Status::invalid_argument(
          "compaction watermark " + std::to_string(watermark) +
          " is ahead of write_seq " + std::to_string(state_->write_seq));
    }
    if (watermark <= state_->watermark && state_->watermark != 0) {
      // A concurrent compaction already baked a generation at (or past)
      // this watermark and truncated the overlay accordingly.  Installing
      // this older rebuild would publish a base that predates runs the
      // winner already dropped — acknowledged writes would vanish.  Refuse
      // and keep serving; nothing is lost, the stale rebuild is discarded.
      return Status::failed_precondition(
          "compaction watermark " + std::to_string(watermark) +
          " is not ahead of the already-baked watermark " +
          std::to_string(state_->watermark) +
          " (a concurrent compaction won); stale rebuild discarded");
    }
    version = registry_->publish(std::move(snap));
    registry_->mark_good(version);
    snapshot::Registry::Pin pin = registry_->pin();
    if (!pin.has_snapshot() || pin.version() != version) {
      // A foreign publish/rollback on the shared registry displaced our
      // generation before we could pin it.  Keep serving the old state:
      // nothing acknowledged is lost, the overlay just stays untruncated.
      return Status::unavailable(
          "compacted generation " + std::to_string(version) +
          " was displaced before it could be pinned; overlay unchanged");
    }
    auto base = std::make_shared<State::Base>();
    base->proper = ProperIndex::build(pin.snapshot().cascade);
    base->version = version;
    base->pin = std::move(pin);
    auto next = std::make_shared<State>();
    next->base = std::move(base);
    next->write_seq = state_->write_seq;
    next->watermark = watermark;
    next->chunks.resize(state_->chunks.size());
    std::size_t pending = 0;
    std::size_t dropped = 0;
    for (std::size_t c = 0; c < state_->chunks.size(); ++c) {
      const RunChunk* old = state_->chunks[c].get();
      if (old == nullptr) {
        continue;
      }
      // Rebuild only chunks with runs above the watermark; the rest stay
      // null in the new table.
      auto fresh = std::make_shared<RunChunk>();
      bool survivors = false;
      for (std::uint32_t i = 0; i < kChunkNodes; ++i) {
        for (const RunPtr& r : old->lists[i]) {
          if (r->max_seq <= watermark) {
            ++dropped;
            continue;
          }
          fresh->lists[i].push_back(r);
          survivors = true;
          // Entries carry contiguous seqs, so the count above the
          // watermark is a range difference (stale entries below it are
          // harmless shadows — see merge_runs).
          pending += static_cast<std::size_t>(
              r->max_seq - std::max(watermark, r->min_seq - 1));
        }
        recount_depth(*next, 0, fresh->lists[i].size());
      }
      if (survivors) {
        next->chunks[c] = std::move(fresh);
      }
    }
    next->pending = pending;
    ++compactions_total_;
    DynMetrics& m = dyn_metrics();
    m.compactions.inc();
    m.truncated.add(static_cast<std::int64_t>(dropped));
    set_state_gauges(*next);
    state_ = std::move(next);
  }
  if (wal != nullptr) {
    // Outside mu_: commit_watermark pays several fsyncs (manifest tmp +
    // rename + dir, then the segment sweep); holding the catalog lock
    // across them would stall every state() reader and writer for the
    // whole device round-trip.  The Wal has its own mutex, and a racing
    // commit is ordered by its watermark-regression check.
    if (Status st = wal->commit_watermark(watermark, base_file); !st.ok()) {
      // Serving already switched to the new base; the old manifest stays
      // authoritative, so recovery would replay the full overlay over
      // the old base — idempotent and lossless, just more work.  Report
      // the failure so the compactor retries the commit next cycle.
      return Status::unavailable(
          "compacted generation " + std::to_string(version) +
          " installed but manifest commit failed: " + st.message());
    }
  }
  return version;
}

DynamicCatalog::Stats DynamicCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.write_seq = state_->write_seq;
  s.watermark = state_->watermark;
  s.base_version = state_->base->version;
  s.pending = state_->pending;
  s.max_depth = state_->max_depth;
  s.nodes_with_runs = state_->touched;
  s.applied_total = applied_total_;
  s.merges_total = merges_total_;
  s.compactions_total = compactions_total_;
  return s;
}

}  // namespace dyn
