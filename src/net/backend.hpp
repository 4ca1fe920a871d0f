#pragma once

// What a net::Server serves (DESIGN.md §11).  The server owns the
// connection plane — accept, framing, hygiene, deadlines, quotas, admin
// trust, drain, and the per-frame metrics — and answers HEALTH (with the
// backend's rows), METRICS, DRAIN and stray ERROR frames itself.  Every
// other admitted frame is handed to the backend on the serving thread
// that read it.
// Two backends exist: net::CollectionBackend (named snapshot collections
// served in-process) and cluster::Router (scatter-gather over shards).

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "robust/status.hpp"

namespace net {

/// One admitted request as a backend sees it.
struct Request {
  const FrameHeader& header;
  std::span<const std::uint8_t> payload;
  const DecodeLimits& limits;
  /// Arrival plus the header's deadline_ns (saturated at an hour);
  /// nullopt when the request carries none.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  [[nodiscard]] MsgType type() const {
    return static_cast<MsgType>(header.type);
  }
};

/// The typed refusal for a request whose deadline passed `when`.
[[nodiscard]] inline coop::Status expired(const Request& req,
                                          const char* when) {
  return coop::Status::deadline_exceeded(
      "request deadline of " + std::to_string(req.header.deadline_ns) +
      "ns expired " + when);
}

class Backend {
 public:
  virtual ~Backend() = default;

  /// Answer one request: the response payload, which the server frames
  /// under the request's type, or a Status it sends as a typed ERROR.
  /// Verbs the backend does not serve are kInvalidArgument.  Called
  /// concurrently from every serving thread.
  [[nodiscard]] virtual coop::Expected<std::vector<std::uint8_t>> serve(
      const Request& req) = 0;

  /// The per-collection rows of a HEALTH response.
  [[nodiscard]] virtual std::vector<CollectionHealth> health() = 0;
};

}  // namespace net
