#pragma once

// Named dataset registry for the server (DESIGN.md §11): each collection
// owns a snapshot::Registry (versioned generations, epoch reclamation)
// fronted by its own serve::Frontend (admission, breaker, retries), all
// sharing one QueryEngine worker pool.  LOAD creates, SWAP publishes a
// new generation into an existing collection under live traffic, UNLOAD
// removes the name — in-flight batches keep the collection alive through
// the shared_ptr they resolved at dispatch, so an unload can never yank
// an arena out from under a query.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dyn/compactor.hpp"
#include "dyn/overlay.hpp"
#include "dyn/recovery.hpp"
#include "net/backend.hpp"
#include "robust/status.hpp"
#include "serve/frontend.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/registry.hpp"

namespace net {

struct Collection {
  Collection(std::string n, serve::QueryEngine& engine,
             serve::FrontendOptions opts)
      : name(std::move(n)), frontend(registry, engine, opts) {}

  const std::string name;
  snapshot::Registry registry;  // must outlive frontend (declared first)
  serve::Frontend frontend;
  /// Non-null only for dynamic collections (make_dynamic after load):
  /// the delta-log overlay accepting MUTATE / DYN_PATH_BATCH, plus its
  /// background compactor.  Declared after registry: the catalog pins
  /// generations from it and must be destroyed first.
  std::unique_ptr<dyn::DynamicCatalog> dyn_catalog;
  std::unique_ptr<dyn::Compactor> compactor;

  [[nodiscard]] bool dynamic() const { return dyn_catalog != nullptr; }
};

class CollectionMap {
 public:
  CollectionMap(serve::QueryEngine& engine, serve::FrontendOptions opts)
      : engine_(engine), fopts_(opts) {}

  /// Create `name` and publish `snap` as its version 1.
  /// kFailedPrecondition when the name already exists (use swap).
  [[nodiscard]] coop::Status load(const std::string& name,
                                  snapshot::Snapshot snap,
                                  std::uint64_t* version = nullptr);

  /// Publish `snap` as the next generation of existing collection
  /// `name`; traffic in flight keeps serving the pinned old generation.
  /// Refused (kFailedPrecondition) for dynamic collections: their
  /// generations are owned by the compaction protocol, and a foreign
  /// publish would silently drop every pending delta run.
  [[nodiscard]] coop::Status swap(const std::string& name,
                                  snapshot::Snapshot snap,
                                  std::uint64_t* version = nullptr);

  /// Attach a delta-log overlay (and an idle background compactor) to an
  /// already-loaded collection, making it accept MUTATE / DYN_PATH_BATCH
  /// / COMPACT.  `compactor` options select trigger threshold and
  /// interval; the compactor thread starts only when `start_compactor`.
  /// kFailedPrecondition when the name is unknown or already dynamic.
  ///
  /// With `durability` set, the collection becomes durable (DESIGN.md
  /// §14): the WAL directory is replayed into the freshly attached
  /// overlay (the caller must have loaded the snapshot plan_boot chose)
  /// and the log is attached before any write is accepted; `report`,
  /// when non-null, receives the recovery summary.  A kCorrupted replay
  /// fails the whole call and the collection stays non-dynamic — a
  /// server must not silently serve a catalog missing acked writes.
  [[nodiscard]] coop::Status make_dynamic(
      const std::string& name, dyn::DynamicCatalog::Options catalog_opts,
      dyn::Compactor::Options compactor_opts, bool start_compactor,
      const dyn::DurabilityOptions* durability = nullptr,
      dyn::RecoveryReport* report = nullptr);

  /// Remove `name`.  In-flight batches finish against their shared_ptr.
  [[nodiscard]] coop::Status unload(const std::string& name);

  /// nullptr when the name is unknown.
  [[nodiscard]] std::shared_ptr<Collection> find(
      const std::string& name) const;

  /// Every collection, sorted by name (stable health output).
  [[nodiscard]] std::vector<std::shared_ptr<Collection>> all() const;

 private:
  serve::QueryEngine& engine_;
  const serve::FrontendOptions fopts_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Collection>> map_;
};

/// The server backend that serves the collections in-process: batches
/// (PATH/POINT/DYN_PATH), writes (MUTATE/COMPACT), LOAD/SWAP/UNLOAD and
/// FETCH_SNAPSHOT against a CollectionMap whose frontends share one
/// QueryEngine.
class CollectionBackend final : public Backend {
 public:
  /// `engine_threads` 0 = hardware concurrency; `frontend` configures
  /// every collection's serve::Frontend.
  CollectionBackend(std::size_t engine_threads,
                    serve::FrontendOptions frontend);

  [[nodiscard]] coop::Status serve(const Request& req,
                                   std::vector<std::uint8_t>& out) override;
  [[nodiscard]] std::vector<CollectionHealth> health() override;

  [[nodiscard]] CollectionMap& collections() { return collections_; }

 private:
  // Each verb appends its response payload to `out`, as serve() does.
  coop::Status serve_paths(const Request& req, std::vector<std::uint8_t>& out);
  coop::Status serve_points(const Request& req,
                            std::vector<std::uint8_t>& out);
  coop::Status serve_dyn_paths(const Request& req,
                               std::vector<std::uint8_t>& out);
  coop::Status serve_mutate(const Request& req,
                            std::vector<std::uint8_t>& out);
  coop::Status serve_compact(const Request& req,
                             std::vector<std::uint8_t>& out);
  coop::Status serve_fetch_snapshot(const Request& req,
                                    std::vector<std::uint8_t>& out);
  coop::Status serve_admin(const Request& req, std::vector<std::uint8_t>& out);

  /// The engine knobs for one batch: the frontend's defaults, with the
  /// request's remaining budget as the watchdog deadline.  False when
  /// that budget is already spent.
  [[nodiscard]] bool batch_options(const Request& req,
                                   serve::BatchOptions& bo) const;

  serve::QueryEngine engine_;
  const serve::BatchOptions batch_;
  CollectionMap collections_;  // after engine_: frontends borrow it
};

}  // namespace net
