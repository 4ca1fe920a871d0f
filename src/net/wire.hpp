#pragma once

// Codec for the framed-TCP serving protocol (DESIGN.md §11): frame
// encode/decode plus the typed payloads that ride inside frames.  Every
// decoder treats its input as hostile — bounds-checked reads, explicit
// limits, descriptive Status on the first violation — because these
// bytes arrive straight off a socket.  Arrays (path node ids, answer
// indices, dynamic answer keys) are checked once and copied with one
// memcpy, and every encoder reserves its exact size up front.  Layout
// constants live in frame_format.hpp (self-contained, shared with
// robust::corrupt_frame).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/primitives.hpp"
#include "net/frame_format.hpp"
#include "robust/status.hpp"
#include "serve/frontend.hpp"
#include "serve/query_engine.hpp"

namespace net {

/// Caps a decoder enforces before allocating anything a peer asked for.
struct DecodeLimits {
  std::size_t max_frame_bytes = 1u << 20;  ///< whole frame incl. prefix
  std::size_t max_name_len = 256;          ///< collection names, paths
  std::size_t max_queries = 1u << 16;      ///< queries per batch
  std::size_t max_path_len = 1u << 10;     ///< nodes per explicit path
};

/// A decoded frame: validated header + the raw payload bytes (CRC
/// already checked).  Payload decoding is a second, per-type step.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Serialize one complete frame (length prefix + header with forged CRC
/// + payload + payload CRC trailer).  `h.payload_len` and `h.header_crc`
/// are filled in here; callers set the routing fields only.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameHeader h, std::span<const std::uint8_t> payload);

/// Validate + split one complete frame (including the 4-byte length
/// prefix).  Rejections, in checking order, each with its own message:
/// too-small buffer, oversize frame, length-prefix/buffer disagreement
/// (truncation), bad magic, unsupported version, header CRC mismatch,
/// header/prefix payload_len disagreement (length lie), payload CRC
/// mismatch (bit flip).
[[nodiscard]] coop::Expected<Frame> decode_frame(
    std::span<const std::uint8_t> bytes, const DecodeLimits& limits = {});

/// The checks decode_frame makes once a frame's size is known to match
/// its length prefix `prefix` (magic, version, header CRC, length lie,
/// payload CRC), for a reader that receives the header, the payload and
/// the CRC trailer straight into its own storage (net::Client does, so
/// a reply's payload is copied once, from the socket).
[[nodiscard]] coop::Status check_frame(std::uint32_t prefix,
                                       const FrameHeader& h,
                                       std::span<const std::uint8_t> payload,
                                       std::uint32_t trailer);

// ---------------------------------------------------------------------
// Payloads.  encode_* returns the payload bytes to wrap in a frame;
// decode_* parses hostile payload bytes under the limits and rejects
// trailing garbage.

struct PathBatchRequest {
  std::string collection;
  std::vector<serve::PathQuery> queries;
};

struct PathBatchResponse {
  std::uint64_t served_version = 0;
  bool degraded = false;
  std::vector<serve::PathAnswer> answers;
};

struct PointBatchRequest {
  std::string collection;
  std::vector<geom::Point> points;
};

struct PointBatchResponse {
  std::uint64_t served_version = 0;
  bool degraded = false;
  std::vector<std::uint64_t> regions;
};

/// The one typed error shape: a StatusCode + message, so a shed, expired,
/// or refused request reports *which* failure it was across the wire.
struct ErrorResponse {
  std::uint32_t code = 0;  ///< coop::StatusCode
  std::string message;
};

struct CollectionHealth {
  std::string name;
  std::uint64_t version = 0;
  std::uint8_t health = 0;  ///< serve::HealthState
};

struct HealthResponse {
  std::uint8_t draining = 0;
  std::vector<CollectionHealth> collections;
};

/// LOAD/SWAP carry a snapshot path; UNLOAD/DRAIN leave it empty.
struct AdminRequest {
  std::string collection;
  std::string snapshot_path;
};

struct AdminResponse {
  std::uint64_t version = 0;
};

/// MUTATE: a write batch against a dynamic collection, carried as
/// length-prefixed *encoded* runs (dyn::encode_run blobs, one per node).
/// Keeping the run codec — CRC trailer and all — inside the frame means
/// the server-side decode exercises the genuine delta-log rejection
/// ladder on hostile bytes, and robust's delta fault kinds travel over
/// the wire unchanged.
struct MutateRequest {
  std::string collection;
  std::vector<std::vector<std::uint8_t>> runs;  ///< encoded run blobs
};

struct MutateResponse {
  std::uint64_t ack_seq = 0;  ///< reads after this seq see the batch
  std::uint32_t applied = 0;  ///< runs applied (== runs sent on kOk)
};

/// DYN_PATH_BATCH mirrors PATH_BATCH but answers are merged live
/// successor *keys* (stable across compactions), not indices.
struct DynPathBatchRequest {
  std::string collection;
  std::vector<serve::PathQuery> queries;
};

struct DynPathBatchResponse {
  std::uint64_t served_version = 0;  ///< base generation that answered
  std::uint64_t write_seq = 0;       ///< overlay seq the answers include
  std::vector<dyn::PathKeys> answers;
};

/// COMPACT: synchronously rebuild + publish one dynamic collection.
struct CompactRequest {
  std::string collection;
};

struct CompactResponse {
  std::uint64_t version = 0;    ///< published generation (or current if
                                ///  nothing was pending)
  std::uint64_t watermark = 0;  ///< seqs baked into the new base
};

/// FETCH_SNAPSHOT: one chunk of a collection's published snapshot file,
/// served straight from the registry's pinned mmap — the replication
/// currency for snapshot-shipping replicas (DESIGN.md §15).  A fetch is
/// a sequence of these; `version` pins the generation after the first
/// chunk so a mid-fetch SWAP restarts the transfer (kFailedPrecondition)
/// instead of splicing bytes of two generations.
struct FetchSnapshotRequest {
  std::string collection;
  std::uint64_t version = 0;    ///< 0 = whatever is current (first chunk)
  std::uint64_t offset = 0;     ///< byte offset into the snapshot file
  std::uint32_t max_chunk = 0;  ///< cap on data bytes returned (0 = server)
};

struct FetchSnapshotResponse {
  std::uint64_t version = 0;     ///< generation the bytes belong to
  std::uint64_t total_size = 0;  ///< whole snapshot file size in bytes
  std::uint64_t offset = 0;      ///< echo of the request offset
  std::vector<std::uint8_t> data;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const PathBatchRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PathBatchResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PointBatchRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const PointBatchResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const ErrorResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const HealthResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AdminRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AdminResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const MutateRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const MutateResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const DynPathBatchRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const DynPathBatchResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CompactRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CompactResponse& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const FetchSnapshotRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const FetchSnapshotResponse& m);

/// Decode a PATH_BATCH or DYN_PATH_BATCH request (`verb`) into `batch`
/// and `collection`, reusing their buffers: the served decoder, which
/// allocates only when a request outgrows every earlier one.  It refuses
/// exactly the payloads decode_path_request / decode_dyn_path_request
/// refuse, with the same Status; on a refusal `batch` holds no usable
/// queries.
[[nodiscard]] coop::Status decode_path_batch(
    MsgType verb, std::span<const std::uint8_t> payload,
    const DecodeLimits& limits, std::string& collection,
    serve::PathBatch& batch);

/// A PATH_BATCH response encoded straight from flat answers, in one
/// allocation: byte-identical to encode(PathBatchResponse) with the same
/// answers.
[[nodiscard]] std::vector<std::uint8_t> encode_path_response(
    std::uint64_t served_version, bool degraded,
    const serve::PathAnswerSet& answers);

/// The DYN_PATH_BATCH twin: byte-identical to
/// encode(DynPathBatchResponse).
[[nodiscard]] std::vector<std::uint8_t> encode_dyn_path_response(
    std::uint64_t served_version, std::uint64_t write_seq,
    const dyn::PathKeySet& answers);

[[nodiscard]] coop::Expected<PathBatchRequest> decode_path_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<PathBatchResponse> decode_path_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<PointBatchRequest> decode_point_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<PointBatchResponse> decode_point_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<ErrorResponse> decode_error(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<HealthResponse> decode_health(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<AdminRequest> decode_admin_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<AdminResponse> decode_admin_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<MutateRequest> decode_mutate_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<MutateResponse> decode_mutate_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<DynPathBatchRequest> decode_dyn_path_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<DynPathBatchResponse> decode_dyn_path_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<CompactRequest> decode_compact_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<CompactResponse> decode_compact_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<FetchSnapshotRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});
[[nodiscard]] coop::Expected<FetchSnapshotResponse> decode_fetch_response(
    std::span<const std::uint8_t> payload, const DecodeLimits& limits = {});

// ---------------------------------------------------------------------
// Byte-level routing of PATH_BATCH and DYN_PATH_BATCH (the scatter-
// gather router, DESIGN.md §15).  The two verbs share one request
// layout, and each answer of either kind is `u32 len` followed by
// `8·len` bytes, so a router splits a request and merges the replies
// without building a PathQuery, PathAnswer or PathKeys: the layout stays
// known to this module alone.  Each helper accepts exactly the payloads
// the matching decode_* accepts, and its output is byte-identical to
// decoding, remapping and re-encoding.

/// Where a router sends a query: picks the shard for one path and
/// rewrites its node ids to that shard's id space.
class PathRouter {
 public:
  virtual ~PathRouter() = default;
  [[nodiscard]] virtual std::uint32_t num_shards() const = 0;
  /// Rewrite `path` in place from the client's node ids to those of the
  /// shard that serves it and return that shard, or refuse the path
  /// with a typed Status.
  [[nodiscard]] virtual coop::Expected<std::uint32_t> route(
      std::span<std::uint32_t> path) const = 0;
};

/// One shard's part of a scattered request.
struct SubBatch {
  std::uint32_t shard = 0;
  std::uint32_t count = 0;            ///< queries in `payload`
  std::vector<std::uint8_t> payload;  ///< the encoded sub-request
};

/// Where one client query went: its sub-batch and its position there.
struct QuerySlot {
  std::uint32_t sub = 0;
  std::uint32_t index = 0;
};

struct ScatteredPaths {
  std::string collection;  ///< as the client named it
  /// The first path the router refused, or OK.  A request that fails to
  /// decode is refused before this, so a decode error always wins.
  coop::Status refused;
  std::vector<SubBatch> subs;    ///< in order of each shard's first query
  std::vector<QuerySlot> slots;  ///< one per client query, in order
};

/// Walk a PATH_BATCH or DYN_PATH_BATCH request (`verb`) once: check its
/// layout, route each path through `router` and append the query to its
/// shard's sub-request, which repeats the client's collection name.
/// After the first refused path only the layout is checked and `subs`
/// and `slots` come back empty.
[[nodiscard]] coop::Expected<ScatteredPaths> scatter_path_request(
    MsgType verb, std::span<const std::uint8_t> payload,
    const PathRouter& router, const DecodeLimits& limits = {});

/// A PATH_BATCH or DYN_PATH_BATCH response whose layout has been checked
/// once: its header and the byte span of every answer.
struct PathReply {
  std::uint64_t served_version = 0;
  bool degraded = false;        ///< PATH_BATCH only
  std::uint64_t write_seq = 0;  ///< DYN_PATH_BATCH only
  std::vector<std::uint8_t> payload;
  /// Answer i is payload[offsets[i], offsets[i + 1]).
  std::vector<std::size_t> offsets;

  [[nodiscard]] std::size_t answers() const { return offsets.size() - 1; }
};

[[nodiscard]] coop::Expected<PathReply> index_path_reply(
    MsgType verb, std::vector<std::uint8_t> payload,
    const DecodeLimits& limits = {});

/// The client's response: the oldest `served_version` (and `write_seq`)
/// of any reply, `degraded` if any reply was, and the answers in client
/// order.  Every slot must name an answer that its reply holds.
[[nodiscard]] std::vector<std::uint8_t> splice_path_replies(
    MsgType verb, std::span<const PathReply> replies,
    std::span<const QuerySlot> slots);

/// Map a non-OK Status to its wire error payload and back.  Unknown
/// codes coming off the wire collapse to kInternal (never UB, never OK).
[[nodiscard]] ErrorResponse to_wire_error(const coop::Status& s);
[[nodiscard]] coop::Status from_wire_error(const ErrorResponse& e);

}  // namespace net
