#pragma once

// On-the-wire layout of one framed-TCP message (DESIGN.md §11).
//
//   [u32 frame_len][FrameHeader 40 B][payload][u32 payload_crc]
//
// frame_len counts every byte after the length prefix (header + payload
// + trailer), so a stream reader knows exactly how much to buffer before
// decoding.  Everything is explicit little-endian (the serving arena
// already asserts an LE platform in serve/arena.hpp); the header carries
// its own CRC-32C (header_crc field zeroed) and the trailer is a CRC-32C
// over the payload bytes, so a truncated, bit-flipped, or length-lying
// frame is rejected by net::decode_frame with a descriptive Status
// before any payload field is trusted.
//
// This header is deliberately self-contained (constants + PODs, CRC via
// snapshot/format.hpp which is itself header-only) so robust/corrupt.cpp
// can craft targeted wire-level faults without linking the net library.

#include <cstddef>
#include <cstdint>

#include "snapshot/format.hpp"

namespace net {

/// "CWF1" — first 4 bytes after the length prefix of every frame.
inline constexpr std::uint32_t kWireMagic = 0x31465743;  // 'C','W','F','1'

/// Bump on any incompatible layout change; decode_frame rejects frames
/// with a different version (no silent best-effort parsing).
inline constexpr std::uint16_t kWireVersion = 1;

/// Hard upper bound on frame_len accepted anywhere; servers typically
/// configure a smaller per-connection cap (ServerOptions::max_frame_bytes).
inline constexpr std::uint32_t kAbsoluteMaxFrame = 64u << 20;

/// What a frame carries.  A response reuses its request's type with
/// kResponseBit set; kError is the one typed error response shape (a
/// StatusCode + message) every request can receive instead.
enum class MsgType : std::uint16_t {
  kPathBatch = 1,   ///< explicit-path search batch against a collection
  kPointBatch = 2,  ///< planar point-location batch
  kHealth = 3,      ///< server + per-collection health probe
  kMetrics = 4,     ///< Prometheus text exposition of the obs registry
  kLoad = 5,        ///< admin: create collection from a snapshot file
  kSwap = 6,        ///< admin: publish a new generation into a collection
  kUnload = 7,      ///< admin: remove a collection
  kDrain = 8,       ///< admin: begin graceful drain (the SIGTERM path)
  kMutate = 9,      ///< admin-gated write batch against a dynamic collection
  kDynPathBatch = 10,  ///< merge-on-read path batch (answers are keys)
  kCompact = 11,    ///< admin: synchronous compaction of a dynamic collection
  kFetchSnapshot = 12,  ///< chunked pull of a collection's snapshot bytes
  kError = 0x00FF,  ///< typed error response (always has kResponseBit)
};

inline constexpr std::uint16_t kResponseBit = 0x0100;

[[nodiscard]] inline const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kPathBatch: return "PATH_BATCH";
    case MsgType::kPointBatch: return "POINT_BATCH";
    case MsgType::kHealth: return "HEALTH";
    case MsgType::kMetrics: return "METRICS";
    case MsgType::kLoad: return "LOAD";
    case MsgType::kSwap: return "SWAP";
    case MsgType::kUnload: return "UNLOAD";
    case MsgType::kDrain: return "DRAIN";
    case MsgType::kMutate: return "MUTATE";
    case MsgType::kDynPathBatch: return "DYN_PATH_BATCH";
    case MsgType::kCompact: return "COMPACT";
    case MsgType::kFetchSnapshot: return "FETCH_SNAPSHOT";
    case MsgType::kError: return "ERROR";
  }
  return "?";
}

/// 40-byte frame header.  header_crc is the CRC-32C of these 40 bytes
/// with the header_crc field itself zeroed.
struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t type = 0;          ///< MsgType (| kResponseBit on responses)
  std::uint64_t request_id = 0;    ///< echoed verbatim in the response
  std::uint64_t tenant = 0;        ///< tenant id for quota accounting
  std::uint64_t deadline_ns = 0;   ///< relative deadline budget; 0 = none
  std::uint32_t payload_len = 0;   ///< payload bytes between header and CRC
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(FrameHeader) == 40);

/// Bytes of a frame before its payload: length prefix + header.
inline constexpr std::size_t kFrameHead =
    sizeof(std::uint32_t) + sizeof(FrameHeader);

/// Bytes of a frame that are not payload: length prefix + header + CRC
/// trailer.
inline constexpr std::size_t kFrameOverhead =
    kFrameHead + sizeof(std::uint32_t);

/// CRC of a FrameHeader with its header_crc field zeroed (CRC-32C, the
/// same runtime-dispatched kernel the snapshot format uses).
[[nodiscard]] inline std::uint32_t frame_header_crc(FrameHeader h) {
  h.header_crc = 0;
  return snapshot::crc32(&h, sizeof(h));
}

}  // namespace net
