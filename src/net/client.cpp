#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace net {

using coop::Status;

namespace {

/// The receive buffer's first size: a reply to a small batch fits, so it
/// is read with one recv; a larger frame grows the buffer once.
constexpr std::size_t kMinReceiveBuffer = 4096;

}  // namespace

Client::Client(Client&& o) noexcept { *this = std::move(o); }

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    opts_ = o.opts_;
    applied_io_timeout_ = o.applied_io_timeout_;
    next_request_id_ = o.next_request_id_;
    pending_type_ = o.pending_type_;
    pending_id_ = o.pending_id_;
    sbuf_ = std::move(o.sbuf_);
    rbuf_ = std::move(o.rbuf_);
    rbegin_ = std::exchange(o.rbegin_, 0);
    rend_ = std::exchange(o.rend_, 0);
  }
  return *this;
}

coop::Expected<Client> Client::connect(const std::string& host,
                                       std::uint16_t port,
                                       ClientOptions opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::invalid_argument("bad host address '" + host + "'");
  }
  // Nonblocking connect + poll, so a black-holed server respects
  // connect_timeout instead of the kernel's; the socket blocks after.
  const int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Status s = Status::unavailable(std::string("connect(): ") +
                                         std::strerror(errno));
    ::close(fd);
    return s;
  }
  pollfd p{fd, POLLOUT, 0};
  const auto ms = std::max<std::int64_t>(
      1, std::chrono::duration_cast<std::chrono::milliseconds>(
             opts.connect_timeout)
             .count());
  const int ready = ::poll(&p, 1, static_cast<int>(ms));
  if (ready <= 0) {
    ::close(fd);
    return ready == 0 ? Status::deadline_exceeded("connect timed out")
                      : Status::unavailable(std::string("poll(): ") +
                                            std::strerror(errno));
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    return Status::unavailable(std::string("connect(): ") +
                               std::strerror(err != 0 ? err : errno));
  }
  (void)fcntl(fd, F_SETFL, flags);
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Client c;
  c.fd_ = fd;
  c.opts_ = opts;
  c.apply_io_timeout();
  return c;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::close_abruptly() {
  if (fd_ < 0) {
    return;
  }
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  (void)setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd_);
  fd_ = -1;
}

void Client::apply_io_timeout() {
  if (opts_.io_timeout == applied_io_timeout_) {
    return;
  }
  // A zero timeval means "wait forever", so the shortest timeout is 1 µs.
  const auto us = std::max<std::int64_t>(
      1, std::chrono::ceil<std::chrono::microseconds>(opts_.io_timeout)
             .count());
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  applied_io_timeout_ = opts_.io_timeout;
}

Status Client::send_all(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) {
    return Status::unavailable("client is not connected");
  }
  apply_io_timeout();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::deadline_exceeded("send timed out");
    } else if (errno != EINTR) {
      return Status::unavailable(std::string("connection lost in send(): ") +
                                 std::strerror(errno));
    }
  }
  return coop::OkStatus();
}

Status Client::fill(std::size_t need) {
  if (rbuf_.size() - rbegin_ < need) {
    // Move the unread bytes to the front, then grow if that is not room
    // enough.
    if (rbegin_ != 0) {
      std::memmove(rbuf_.data(), rbuf_.data() + rbegin_, rend_ - rbegin_);
      rend_ -= rbegin_;
      rbegin_ = 0;
    }
    if (rbuf_.size() < need) {
      rbuf_.resize(std::max({need, 2 * rbuf_.size(), kMinReceiveBuffer}));
    }
  }
  while (rend_ - rbegin_ < need) {
    const ssize_t got =
        ::recv(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_, 0);
    if (got > 0) {
      rend_ += static_cast<std::size_t>(got);
    } else if (got == 0) {
      return Status::unavailable("connection closed by server mid-frame");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::deadline_exceeded("recv timed out");
    } else if (errno != EINTR) {
      return Status::unavailable(std::string("connection lost in recv(): ") +
                                 std::strerror(errno));
    }
  }
  return coop::OkStatus();
}

Status Client::send_raw(std::span<const std::uint8_t> bytes) {
  return send_all(bytes);
}

Status Client::next_frame(FrameHeader& h,
                          std::span<const std::uint8_t>& payload) {
  apply_io_timeout();
  if (rbegin_ == rend_) {
    rbegin_ = rend_ = 0;  // nothing unread: receive at the front
  }
  std::uint32_t prefix = 0;
  if (Status s = fill(sizeof(prefix)); !s.ok()) {
    return s;
  }
  std::memcpy(&prefix, rbuf_.data() + rbegin_, sizeof(prefix));
  const std::size_t size = sizeof(prefix) + std::size_t{prefix};
  if (std::size_t{prefix} < sizeof(FrameHeader) + sizeof(std::uint32_t) ||
      size > opts_.limits.max_frame_bytes || size > kAbsoluteMaxFrame) {
    return Status::corrupted("server sent a frame with length prefix " +
                             std::to_string(prefix) +
                             " outside the accepted range");
  }
  if (Status s = fill(size); !s.ok()) {
    return s;
  }
  const std::uint8_t* frame = rbuf_.data() + rbegin_;
  rbegin_ += size;
  std::memcpy(&h, frame + sizeof(prefix), sizeof(h));
  payload = {frame + sizeof(prefix) + sizeof(h), size - kFrameOverhead};
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, frame + size - sizeof(trailer), sizeof(trailer));
  return check_frame(prefix, h, payload, trailer);
}

coop::Expected<Frame> Client::read_frame() {
  Frame f;
  std::span<const std::uint8_t> payload;
  if (Status s = next_frame(f.header, payload); !s.ok()) {
    return s;
  }
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

FrameHeader Client::next_header(MsgType type) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.request_id = next_request_id_++;
  h.tenant = opts_.tenant;
  h.deadline_ns = opts_.deadline_ns;
  pending_type_ = type;
  pending_id_ = h.request_id;
  return h;
}

Status Client::send_request(MsgType type,
                            std::span<const std::uint8_t> payload) {
  encode_frame_into(next_header(type), payload, sbuf_);
  return send_all(sbuf_);
}

Status Client::next_response(FrameHeader& h,
                             std::span<const std::uint8_t>& payload) {
  if (Status s = next_frame(h, payload); !s.ok()) {
    return s;
  }
  if (h.request_id != pending_id_) {
    return Status::internal("response request_id " +
                            std::to_string(h.request_id) +
                            " does not match request " +
                            std::to_string(pending_id_));
  }
  const auto rtype = static_cast<MsgType>(h.type & ~kResponseBit);
  if (rtype == MsgType::kError) {
    auto err = decode_error(payload, opts_.limits);
    if (!err.ok()) {
      return err.status();
    }
    return from_wire_error(err.value());
  }
  if (rtype != pending_type_ || (h.type & kResponseBit) == 0) {
    return Status::internal("unexpected response type " +
                            std::to_string(h.type));
  }
  return coop::OkStatus();
}

coop::Expected<Frame> Client::recv_response() {
  Frame f;
  std::span<const std::uint8_t> payload;
  if (Status s = next_response(f.header, payload); !s.ok()) {
    return s;
  }
  f.payload.assign(payload.begin(), payload.end());
  return f;
}

coop::Expected<std::span<const std::uint8_t>> Client::reply_payload() {
  FrameHeader h;
  std::span<const std::uint8_t> reply;
  if (Status s = next_response(h, reply); !s.ok()) {
    return s;
  }
  return reply;
}

coop::Expected<std::span<const std::uint8_t>> Client::round_trip(
    MsgType type, std::span<const std::uint8_t> payload) {
  if (Status s = send_request(type, payload); !s.ok()) {
    return s;
  }
  return reply_payload();
}

template <typename Resp>
coop::Expected<Resp> Client::call(
    MsgType type, std::span<const std::uint8_t> payload,
    coop::Expected<Resp> (*decode)(std::span<const std::uint8_t>,
                                   const DecodeLimits&)) {
  auto reply = round_trip(type, payload);
  if (!reply.ok()) {
    return reply.status();
  }
  return decode(*reply, opts_.limits);
}

template <typename Resp>
coop::Expected<Resp> Client::path_call(
    MsgType type, const std::string& collection,
    std::span<const serve::PathQuery> queries,
    coop::Expected<Resp> (*decode)(std::span<const std::uint8_t>,
                                   const DecodeLimits&)) {
  encode_path_request_frame(next_header(type), collection, queries, sbuf_);
  if (Status s = send_all(sbuf_); !s.ok()) {
    return s;
  }
  auto reply = reply_payload();
  if (!reply.ok()) {
    return reply.status();
  }
  return decode(*reply, opts_.limits);
}

coop::Expected<PathBatchResponse> Client::path_batch(
    const std::string& collection,
    std::span<const serve::PathQuery> queries) {
  return path_call(MsgType::kPathBatch, collection, queries,
                   decode_path_response);
}

coop::Expected<PointBatchResponse> Client::point_batch(
    const std::string& collection, std::span<const geom::Point> points) {
  PointBatchRequest req{collection, {points.begin(), points.end()}};
  return call(MsgType::kPointBatch, encode(req), decode_point_response);
}

coop::Expected<HealthResponse> Client::health() {
  return call(MsgType::kHealth, {}, decode_health);
}

coop::Expected<std::string> Client::metrics() {
  auto reply = round_trip(MsgType::kMetrics, {});
  if (!reply.ok()) {
    return reply.status();
  }
  return std::string(reinterpret_cast<const char*>(reply->data()),
                     reply->size());
}

coop::Expected<std::uint64_t> Client::admin(MsgType type,
                                            const std::string& collection,
                                            const std::string& snapshot_path) {
  auto resp = call(type, encode(AdminRequest{collection, snapshot_path}),
                   decode_admin_response);
  if (!resp.ok()) {
    return resp.status();
  }
  return resp->version;
}

coop::Expected<std::uint64_t> Client::load(
    const std::string& collection, const std::string& snapshot_path) {
  return admin(MsgType::kLoad, collection, snapshot_path);
}

coop::Expected<std::uint64_t> Client::swap(
    const std::string& collection, const std::string& snapshot_path) {
  return admin(MsgType::kSwap, collection, snapshot_path);
}

coop::Status Client::unload(const std::string& collection) {
  return admin(MsgType::kUnload, collection, "").status();
}

coop::Status Client::drain() { return admin(MsgType::kDrain, "", "").status(); }

coop::Expected<MutateResponse> Client::mutate(
    const std::string& collection,
    std::vector<std::vector<std::uint8_t>> runs) {
  MutateRequest req{collection, std::move(runs)};
  return call(MsgType::kMutate, encode(req), decode_mutate_response);
}

coop::Expected<DynPathBatchResponse> Client::dyn_path_batch(
    const std::string& collection,
    std::span<const serve::PathQuery> queries) {
  return path_call(MsgType::kDynPathBatch, collection, queries,
                   decode_dyn_path_response);
}

coop::Expected<CompactResponse> Client::compact(
    const std::string& collection) {
  return call(MsgType::kCompact, encode(CompactRequest{collection}),
              decode_compact_response);
}

coop::Expected<FetchSnapshotResponse> Client::fetch_snapshot(
    const std::string& collection, std::uint64_t version, std::uint64_t offset,
    std::uint32_t max_chunk) {
  FetchSnapshotRequest req{collection, version, offset, max_chunk};
  return call(MsgType::kFetchSnapshot, encode(req), decode_fetch_response);
}

}  // namespace net
