#include "net/collections.hpp"

#include <algorithm>

#include "snapshot/snapshot.hpp"

namespace net {

using coop::Status;

Status CollectionMap::load(const std::string& name, snapshot::Snapshot snap,
                           std::uint64_t* version) {
  std::shared_ptr<Collection> c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(name) != 0) {
      return Status::failed_precondition("collection '" + name +
                                         "' already loaded (use SWAP)");
    }
    c = std::make_shared<Collection>(name, engine_, fopts_);
    map_.emplace(name, c);
  }
  const std::uint64_t v = c->registry.publish(std::move(snap));
  if (version != nullptr) {
    *version = v;
  }
  return coop::OkStatus();
}

Status CollectionMap::swap(const std::string& name, snapshot::Snapshot snap,
                           std::uint64_t* version) {
  std::shared_ptr<Collection> c = find(name);
  if (c == nullptr) {
    return Status::failed_precondition("collection '" + name +
                                       "' not loaded (use LOAD)");
  }
  if (c->dynamic()) {
    return Status::failed_precondition(
        "collection '" + name +
        "' is dynamic: its generations are published by the compaction "
        "protocol (use MUTATE/COMPACT, not SWAP)");
  }
  const std::uint64_t v = c->registry.publish(std::move(snap));
  if (version != nullptr) {
    *version = v;
  }
  return coop::OkStatus();
}

Status CollectionMap::make_dynamic(const std::string& name,
                                   dyn::DynamicCatalog::Options catalog_opts,
                                   dyn::Compactor::Options compactor_opts,
                                   bool start_compactor,
                                   const dyn::DurabilityOptions* durability,
                                   dyn::RecoveryReport* report) {
  std::shared_ptr<Collection> c = find(name);
  if (c == nullptr) {
    return Status::failed_precondition("collection '" + name +
                                       "' not loaded (use LOAD)");
  }
  if (c->dynamic()) {
    return Status::failed_precondition("collection '" + name +
                                       "' is already dynamic");
  }
  auto attached = dyn::DynamicCatalog::attach(c->registry, catalog_opts);
  if (!attached.ok()) {
    return attached.status();
  }
  std::unique_ptr<dyn::DynamicCatalog> cat = attached.take();
  if (durability != nullptr) {
    // Replay + WAL attach before the catalog is published on the map:
    // no MUTATE can slip in ahead of recovery, and a corrupted log
    // leaves the collection exactly as loaded (static, typed error).
    auto recovered = dyn::recover_and_attach(*cat, *durability);
    if (!recovered.ok()) {
      return recovered.status();
    }
    if (report != nullptr) {
      *report = recovered.take();
    }
    // Durable catalogs spool compactions into the WAL directory (the
    // manifest names the file); an operator spool path would be ignored
    // by the compactor anyway — clear it to keep intent obvious.
    compactor_opts.spool_path.clear();
  }
  c->dyn_catalog = std::move(cat);
  c->compactor = std::make_unique<dyn::Compactor>(*c->dyn_catalog,
                                                  std::move(compactor_opts));
  if (start_compactor) {
    c->compactor->start();
  }
  return coop::OkStatus();
}

Status CollectionMap::unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.erase(name) == 0) {
    return Status::failed_precondition("collection '" + name +
                                       "' not loaded");
  }
  return coop::OkStatus();
}

std::shared_ptr<Collection> CollectionMap::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(name);
  return it == map_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Collection>> CollectionMap::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Collection>> out;
  out.reserve(map_.size());
  for (const auto& [name, c] : map_) {
    out.push_back(c);
  }
  return out;
}

// ---- CollectionBackend ---------------------------------------------

namespace {

/// Largest FETCH_SNAPSHOT data chunk the server volunteers; small enough
/// that the whole response frame fits the default 1 MiB decode limit on
/// both ends with generous headroom.
constexpr std::uint64_t kFetchChunkCap = 256u << 10;

Status unknown_collection(const std::string& name) {
  return Status::invalid_argument("unknown collection '" + name + "'");
}

}  // namespace

CollectionBackend::CollectionBackend(std::size_t engine_threads,
                                     serve::FrontendOptions frontend)
    : engine_(engine_threads),
      batch_(frontend.batch),
      collections_(engine_, std::move(frontend)) {}

coop::Expected<std::vector<std::uint8_t>> CollectionBackend::serve(
    const Request& req) {
  switch (req.type()) {
    case MsgType::kPathBatch:
      return serve_paths(req);
    case MsgType::kPointBatch:
      return serve_points(req);
    case MsgType::kDynPathBatch:
      return serve_dyn_paths(req);
    case MsgType::kMutate:
      return serve_mutate(req);
    case MsgType::kCompact:
      return serve_compact(req);
    case MsgType::kFetchSnapshot:
      return serve_fetch_snapshot(req);
    case MsgType::kLoad:
    case MsgType::kSwap:
    case MsgType::kUnload:
      return serve_admin(req);
    default:
      return Status::invalid_argument("unknown message type " +
                                      std::to_string(req.header.type));
  }
}

std::vector<CollectionHealth> CollectionBackend::health() {
  std::vector<CollectionHealth> rows;
  for (const std::shared_ptr<Collection>& c : collections_.all()) {
    CollectionHealth ch;
    ch.name = c->name;
    ch.version = c->registry.current_version();
    ch.health = static_cast<std::uint8_t>(c->frontend.health());
    rows.push_back(std::move(ch));
  }
  return rows;
}

bool CollectionBackend::batch_options(const Request& req,
                                      serve::BatchOptions& bo) const {
  bo = batch_;
  if (req.deadline) {
    bo.deadline = *req.deadline - std::chrono::steady_clock::now();
    return bo.deadline > std::chrono::nanoseconds(0);
  }
  return true;
}

namespace {

/// One serving thread's PATH_BATCH / DYN_PATH_BATCH state, reused across
/// its requests: the decoded batch and its flat answers.  The buffers
/// keep their capacity, so a request costs a fixed number of allocations
/// however many queries it carries.
struct PathScratch {
  std::string collection;
  serve::PathBatch batch;
  serve::PathAnswerSet answers;
  dyn::PathKeySet keys;
};

PathScratch& path_scratch() {
  thread_local PathScratch scratch;
  return scratch;
}

}  // namespace

CollectionBackend::Reply CollectionBackend::serve_paths(const Request& req) {
  PathScratch& s = path_scratch();
  if (Status st = decode_path_batch(MsgType::kPathBatch, req.payload,
                                    req.limits, s.collection, s.batch);
      !st.ok()) {
    return st;
  }
  const std::shared_ptr<Collection> c = collections_.find(s.collection);
  if (c == nullptr) {
    return unknown_collection(s.collection);
  }
  // Validate every untrusted path against the current snapshot before
  // the assert-free grouped kernel sees it.  The pin is held across the
  // serve call so the validated generation cannot be reclaimed mid-batch
  // (the serving contract requires SWAP generations to keep the node-id
  // space — see DESIGN.md §11).
  const snapshot::Registry::Pin pin = c->registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition("collection '" + s.collection +
                                       "' has no published snapshot");
  }
  if (pin.snapshot().kind != snapshot::SnapshotKind::kCascade) {
    return Status::failed_precondition(
        "collection '" + s.collection +
        "' serves point location, not path search");
  }
  for (const serve::PathRef& q : s.batch.queries()) {
    if (Status st = pin.snapshot().cascade.validate_path({q.path, q.len});
        !st.ok()) {
      return st;
    }
  }
  serve::BatchOptions bo;
  if (!batch_options(req, bo)) {
    return expired(req, "before dispatch");
  }
  serve::BatchReport report;
  std::uint64_t version = 0;
  if (Status st = c->frontend.serve_paths(s.batch.queries(), s.answers,
                                          &report, &version,
                                          req.deadline ? &bo : nullptr);
      !st.ok()) {
    return st;
  }
  return encode_path_response(version, report.degraded, s.answers);
}

CollectionBackend::Reply CollectionBackend::serve_points(const Request& req) {
  auto decoded = decode_point_request(req.payload, req.limits);
  if (!decoded.ok()) {
    return decoded.status();
  }
  const std::shared_ptr<Collection> c = collections_.find(decoded->collection);
  if (c == nullptr) {
    return unknown_collection(decoded->collection);
  }
  serve::BatchOptions bo;
  if (!batch_options(req, bo)) {
    return expired(req, "before dispatch");
  }
  PointBatchResponse resp;
  serve::BatchReport report;
  std::vector<std::size_t> regions;
  if (Status s = c->frontend.serve_points(decoded->points, regions, &report,
                                          &resp.served_version,
                                          req.deadline ? &bo : nullptr);
      !s.ok()) {
    return s;
  }
  resp.regions.assign(regions.begin(), regions.end());
  resp.degraded = report.degraded;
  return encode(resp);
}

namespace {

/// Resolve a request's collection and require it to be dynamic.
coop::Expected<std::shared_ptr<Collection>> find_dynamic(
    const CollectionMap& collections, const std::string& name) {
  std::shared_ptr<Collection> c = collections.find(name);
  if (c == nullptr) {
    return unknown_collection(name);
  }
  if (!c->dynamic()) {
    return Status::failed_precondition(
        "collection '" + name +
        "' is static: MUTATE/DYN_PATH_BATCH/COMPACT require a dynamic "
        "collection (serve with --dynamic-collection)");
  }
  return c;
}

}  // namespace

CollectionBackend::Reply CollectionBackend::serve_mutate(const Request& req) {
  auto decoded = decode_mutate_request(req.payload, req.limits);
  if (!decoded.ok()) {
    return decoded.status();
  }
  auto c = find_dynamic(collections_, decoded->collection);
  if (!c.ok()) {
    return c.status();
  }
  // Decode every blob through the delta-log rejection ladder before any
  // of them is applied: a MUTATE batch is all-or-nothing, so a corrupt
  // run rejects the batch without leaving a partial write.
  std::vector<dyn::Run> runs;
  runs.reserve(decoded->runs.size());
  for (const std::vector<std::uint8_t>& blob : decoded->runs) {
    auto run = dyn::decode_run(blob);
    if (!run.ok()) {
      return run.status();
    }
    runs.push_back(run.take());
  }
  MutateResponse resp;
  resp.applied = static_cast<std::uint32_t>(runs.size());
  if (Status s = (*c)->frontend.apply_runs(*(*c)->dyn_catalog,
                                           std::move(runs), &resp.ack_seq);
      !s.ok()) {
    return s;
  }
  return encode(resp);
}

CollectionBackend::Reply CollectionBackend::serve_dyn_paths(
    const Request& req) {
  PathScratch& s = path_scratch();
  if (Status st = decode_path_batch(MsgType::kDynPathBatch, req.payload,
                                    req.limits, s.collection, s.batch);
      !st.ok()) {
    return st;
  }
  auto c = find_dynamic(collections_, s.collection);
  if (!c.ok()) {
    return c.status();
  }
  serve::BatchOptions bo;
  if (!batch_options(req, bo)) {
    return expired(req, "before dispatch");
  }
  std::uint64_t version = 0;
  std::uint64_t write_seq = 0;
  if (Status st = (*c)->frontend.serve_dyn_paths(
          *(*c)->dyn_catalog, s.batch.queries(), s.keys, &version, &write_seq,
          req.deadline ? &bo : nullptr);
      !st.ok()) {
    return st;
  }
  return encode_dyn_path_response(version, write_seq, s.keys);
}

CollectionBackend::Reply CollectionBackend::serve_compact(
    const Request& req) {
  auto decoded = decode_compact_request(req.payload, req.limits);
  if (!decoded.ok()) {
    return decoded.status();
  }
  auto c = find_dynamic(collections_, decoded->collection);
  if (!c.ok()) {
    return c.status();
  }
  auto version = (*c)->compactor->compact_once();
  if (!version.ok()) {
    return version.status();
  }
  CompactResponse resp;
  resp.version = version.value();
  resp.watermark = (*c)->dyn_catalog->stats().watermark;
  return encode(resp);
}

/// FETCH_SNAPSHOT: one chunk of the collection's published snapshot,
/// copied straight out of the registry's pinned mmap (the whole file's
/// bytes).  Read-only over already-published data, so it rides the
/// normal (non-admin) trust boundary like PATH_BATCH.  The pin is held
/// while the chunk is copied, so a concurrent SWAP cannot unmap the
/// generation mid-read; a version-pinned request against a superseded
/// generation gets kFailedPrecondition and the follower restarts.
CollectionBackend::Reply CollectionBackend::serve_fetch_snapshot(
    const Request& req) {
  auto decoded = decode_fetch_request(req.payload, req.limits);
  if (!decoded.ok()) {
    return decoded.status();
  }
  const FetchSnapshotRequest& f = *decoded;
  const std::shared_ptr<Collection> c = collections_.find(f.collection);
  if (c == nullptr) {
    return unknown_collection(f.collection);
  }
  const snapshot::Registry::Pin pin = c->registry.pin();
  if (!pin.has_snapshot()) {
    return Status::failed_precondition("collection '" + f.collection +
                                       "' has no published snapshot");
  }
  if (f.version != 0 && f.version != pin.version()) {
    return Status::failed_precondition(
        "snapshot generation " + std::to_string(f.version) +
        " is no longer published (current is " +
        std::to_string(pin.version()) + "); restart the fetch");
  }
  const snapshot::Snapshot& snap = pin.snapshot();
  if (!snap.mapping.mapped()) {
    return Status::failed_precondition(
        "collection '" + f.collection +
        "' serves an in-memory snapshot; only file-backed generations can "
        "be fetched");
  }
  const std::uint64_t size = snap.mapping.size();
  if (f.offset > size) {
    return Status::invalid_argument(
        "fetch offset " + std::to_string(f.offset) +
        " is past the snapshot end (" + std::to_string(size) + " bytes)");
  }
  // Cap the chunk so the response frame always fits the decode limits of
  // both sides (payload + strings + frame overhead stay well under
  // max_frame_bytes).
  const std::uint64_t cap = std::min<std::uint64_t>(
      kFetchChunkCap, req.limits.max_frame_bytes / 2);
  std::uint64_t want = f.max_chunk == 0 ? cap : f.max_chunk;
  want = std::min({want, cap, size - f.offset});
  FetchSnapshotResponse resp;
  resp.version = pin.version();
  resp.total_size = size;
  resp.offset = f.offset;
  const std::uint8_t* base = snap.mapping.data() + f.offset;
  resp.data.assign(base, base + want);
  return encode(resp);
}

CollectionBackend::Reply CollectionBackend::serve_admin(const Request& req) {
  auto decoded = decode_admin_request(req.payload, req.limits);
  if (!decoded.ok()) {
    return decoded.status();
  }
  AdminResponse resp;
  if (req.type() == MsgType::kUnload) {
    if (Status s = collections_.unload(decoded->collection); !s.ok()) {
      return s;
    }
    return encode(resp);
  }
  auto snap = snapshot::open(decoded->snapshot_path);
  if (!snap.ok()) {
    return snap.status();
  }
  const Status s =
      req.type() == MsgType::kLoad
          ? collections_.load(decoded->collection, snap.take(), &resp.version)
          : collections_.swap(decoded->collection, snap.take(),
                              &resp.version);
  if (!s.ok()) {
    return s;
  }
  return encode(resp);
}

}  // namespace net
