#pragma once

// Blocking client for the framed-TCP protocol: one connection, one
// request in flight, poll()-guarded reads and writes so a dead or
// stalled server surfaces as a typed Status instead of a hang.  This is
// what coopload, the CI smoke job, and the wire soak's client fleet
// speak; it also exposes the raw-byte and abrupt-close primitives the
// chaos harness needs to inject corrupted frames and mid-batch resets.

#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "robust/status.hpp"

namespace net {

struct ClientOptions {
  std::chrono::nanoseconds connect_timeout{std::chrono::seconds(5)};
  std::chrono::nanoseconds io_timeout{std::chrono::seconds(10)};
  DecodeLimits limits;
  std::uint64_t tenant = 0;
  /// Relative deadline stamped on every request; 0 = none.
  std::uint64_t deadline_ns = 0;
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(Client&& o) noexcept;
  Client& operator=(Client&& o) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] static coop::Expected<Client> connect(
      const std::string& host, std::uint16_t port, ClientOptions opts = {});

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] ClientOptions& options() { return opts_; }

  /// Round-trip helpers.  A server-side typed ERROR response comes back
  /// as its mapped Status (kDeadlineExceeded, kResourceExhausted,
  /// kUnavailable, ...); transport failures come back as kUnavailable
  /// ("connection ...") or kDeadlineExceeded (io timeout).
  [[nodiscard]] coop::Expected<PathBatchResponse> path_batch(
      const std::string& collection,
      std::span<const serve::PathQuery> queries);
  [[nodiscard]] coop::Expected<PointBatchResponse> point_batch(
      const std::string& collection, std::span<const geom::Point> points);
  [[nodiscard]] coop::Expected<HealthResponse> health();
  [[nodiscard]] coop::Expected<std::string> metrics();
  [[nodiscard]] coop::Expected<std::uint64_t> load(
      const std::string& collection, const std::string& snapshot_path);
  [[nodiscard]] coop::Expected<std::uint64_t> swap(
      const std::string& collection, const std::string& snapshot_path);
  [[nodiscard]] coop::Status unload(const std::string& collection);
  [[nodiscard]] coop::Status drain();

  /// Dynamic-collection verbs -----------------------------------------

  /// Apply a write batch of pre-encoded runs (dyn::encode_run blobs) to
  /// a dynamic collection.  On kOk, any dyn_path_batch issued after the
  /// return reads its own writes (ack_seq <= that read's write_seq).
  [[nodiscard]] coop::Expected<MutateResponse> mutate(
      const std::string& collection,
      std::vector<std::vector<std::uint8_t>> runs);

  /// Merge-on-read path batch: answers are live successor *keys*.
  [[nodiscard]] coop::Expected<DynPathBatchResponse> dyn_path_batch(
      const std::string& collection,
      std::span<const serve::PathQuery> queries);

  /// Synchronously compact a dynamic collection.
  [[nodiscard]] coop::Expected<CompactResponse> compact(
      const std::string& collection);

  /// Replication verb -------------------------------------------------

  /// Pull one chunk of a collection's published snapshot file (the
  /// snapshot-shipping primitive; cluster::fetch_snapshot_to_file drives
  /// the whole resumable transfer).  `version` 0 means "whatever is
  /// current"; a nonzero version that no longer matches the published
  /// generation returns kFailedPrecondition so the caller restarts.
  [[nodiscard]] coop::Expected<FetchSnapshotResponse> fetch_snapshot(
      const std::string& collection, std::uint64_t version,
      std::uint64_t offset, std::uint32_t max_chunk);

  /// The two halves of every round trip, for callers that keep several
  /// connections in flight at once (the router sends each shard its
  /// sub-batch before reading any reply).  send_request frames and
  /// writes one request; recv_response reads the reply to it, checks the
  /// echoed request id and type, and unwraps ERROR frames into their
  /// Status.  One request may be outstanding per connection.
  [[nodiscard]] coop::Status send_request(
      MsgType type, std::span<const std::uint8_t> payload);
  [[nodiscard]] coop::Expected<Frame> recv_response();

  /// Chaos primitives ------------------------------------------------

  /// Write arbitrary bytes (e.g. a robust::corrupt_frame-mangled frame)
  /// without framing or response handling.
  [[nodiscard]] coop::Status send_raw(std::span<const std::uint8_t> bytes);

  /// Read one complete frame (for driving send_raw conversations).
  [[nodiscard]] coop::Expected<Frame> read_frame();

  /// SO_LINGER(0) close: the kernel sends RST, simulating a client that
  /// died mid-batch rather than one that said goodbye.
  void close_abruptly();

  /// Orderly close (idempotent).
  void close();

 private:
  [[nodiscard]] coop::Status send_all(std::span<const std::uint8_t> bytes);
  /// Fill every part, in order, from the socket.
  [[nodiscard]] coop::Status recv_exact(std::span<iovec> parts);
  /// send_request then recv_response.
  [[nodiscard]] coop::Expected<Frame> round_trip(
      MsgType type, std::span<const std::uint8_t> payload);
  /// LOAD/SWAP/UNLOAD/DRAIN: the published version, where there is one.
  [[nodiscard]] coop::Expected<std::uint64_t> admin(
      MsgType type, const std::string& collection,
      const std::string& snapshot_path);
  /// round_trip, then decode the response payload.
  template <typename Resp>
  [[nodiscard]] coop::Expected<Resp> call(
      MsgType type, std::span<const std::uint8_t> payload,
      coop::Expected<Resp> (*decode)(std::span<const std::uint8_t>,
                                     const DecodeLimits&));

  int fd_ = -1;
  ClientOptions opts_;
  std::uint64_t next_request_id_ = 1;
  /// The outstanding request recv_response answers.
  MsgType pending_type_ = MsgType::kError;
  std::uint64_t pending_id_ = 0;
};

}  // namespace net
