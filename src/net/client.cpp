#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace net {

using coop::Status;

namespace {

int to_ms(std::chrono::nanoseconds d) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  return ms <= 0 ? 1 : static_cast<int>(ms);
}

/// Wait for readability/writability with a timeout; OK means ready.
Status wait_fd(int fd, short events, std::chrono::nanoseconds timeout,
               const char* what) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  const int n = ::poll(&p, 1, to_ms(timeout));
  if (n < 0) {
    return Status::unavailable(std::string("poll(): ") +
                               std::strerror(errno));
  }
  if (n == 0) {
    return Status::deadline_exceeded(std::string(what) + " timed out");
  }
  if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
      (p.revents & (POLLIN | POLLOUT)) == 0) {
    return Status::unavailable(std::string(what) +
                               ": connection closed by peer");
  }
  return coop::OkStatus();
}

}  // namespace

Client::Client(Client&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      opts_(o.opts_),
      next_request_id_(o.next_request_id_),
      pending_type_(o.pending_type_),
      pending_id_(o.pending_id_) {}

Client& Client::operator=(Client&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    opts_ = o.opts_;
    next_request_id_ = o.next_request_id_;
    pending_type_ = o.pending_type_;
    pending_id_ = o.pending_id_;
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
  // connect_timeout instead of the kernel's.
  const int flags = fcntl(fd, F_GETFL, 0);
  (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const Status s = Status::unavailable(std::string("connect(): ") +
                                         std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (Status s = wait_fd(fd, POLLOUT, opts.connect_timeout, "connect");
      !s.ok()) {
    ::close(fd);
    return s;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    ::close(fd);
    return Status::unavailable(std::string("connect(): ") +
                               std::strerror(err != 0 ? err : errno));
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Client c;
  c.fd_ = fd;
  c.opts_ = opts;
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

Status Client::send_all(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) {
    return Status::unavailable("client is not connected");
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (Status s = wait_fd(fd_, POLLOUT, opts_.io_timeout, "send");
            !s.ok()) {
          return s;
        }
        continue;
      }
      return Status::unavailable(std::string("send(): ") +
                                 std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return coop::OkStatus();
}

Status Client::recv_exact(std::span<iovec> parts) {
  msghdr msg{};
  msg.msg_iov = parts.data();
  msg.msg_iovlen = parts.size();
  while (msg.msg_iovlen != 0) {
    if (msg.msg_iov->iov_len == 0) {
      ++msg.msg_iov;
      --msg.msg_iovlen;
      continue;
    }
    const ssize_t got = ::recvmsg(fd_, &msg, 0);
    if (got > 0) {
      // Advance past the bytes received, which may end mid-part.
      auto left = static_cast<std::size_t>(got);
      while (left != 0) {
        const std::size_t step = std::min(left, msg.msg_iov->iov_len);
        msg.msg_iov->iov_base =
            static_cast<char*>(msg.msg_iov->iov_base) + step;
        msg.msg_iov->iov_len -= step;
        left -= step;
        if (msg.msg_iov->iov_len == 0) {
          ++msg.msg_iov;
          --msg.msg_iovlen;
        }
      }
      continue;
    }
    if (got == 0) {
      return Status::unavailable("connection closed by server mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (Status s = wait_fd(fd_, POLLIN, opts_.io_timeout, "recv");
          !s.ok()) {
        return s;
      }
      continue;
    }
    return Status::unavailable(std::string("recv(): ") +
                               std::strerror(errno));
  }
  return coop::OkStatus();
}

Status Client::send_raw(std::span<const std::uint8_t> bytes) {
  return send_all(bytes);
}

coop::Expected<Frame> Client::read_frame() {
  std::uint32_t prefix = 0;
  iovec head{&prefix, sizeof(prefix)};
  if (Status s = recv_exact({&head, 1}); !s.ok()) {
    return s;
  }
  if (std::size_t{prefix} < sizeof(FrameHeader) + sizeof(std::uint32_t) ||
      sizeof(prefix) + std::size_t{prefix} > opts_.limits.max_frame_bytes ||
      sizeof(prefix) + std::size_t{prefix} > kAbsoluteMaxFrame) {
    return Status::corrupted("server sent a frame with length prefix " +
                             std::to_string(prefix) +
                             " outside the accepted range");
  }
  // The header, payload and CRC trailer land in their own storage, so
  // the payload is copied once, from the socket.
  Frame f;
  f.payload.resize(prefix - sizeof(FrameHeader) - sizeof(std::uint32_t));
  std::uint32_t trailer = 0;
  iovec parts[] = {{&f.header, sizeof(f.header)},
                   {f.payload.data(), f.payload.size()},
                   {&trailer, sizeof(trailer)}};
  if (Status s = recv_exact(parts); !s.ok()) {
    return s;
  }
  if (Status s = check_frame(prefix, f.header, f.payload, trailer); !s.ok()) {
    return s;
  }
  return f;
}

Status Client::send_request(MsgType type,
                            std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.request_id = next_request_id_++;
  h.tenant = opts_.tenant;
  h.deadline_ns = opts_.deadline_ns;
  pending_type_ = type;
  pending_id_ = h.request_id;
  return send_all(encode_frame(h, payload));
}

coop::Expected<Frame> Client::recv_response() {
  auto frame = read_frame();
  if (!frame.ok()) {
    return frame.status();
  }
  if (frame->header.request_id != pending_id_) {
    return Status::internal(
        "response request_id " + std::to_string(frame->header.request_id) +
        " does not match request " + std::to_string(pending_id_));
  }
  const auto rtype = static_cast<MsgType>(frame->header.type &
                                          ~kResponseBit);
  if (rtype == MsgType::kError) {
    auto err = decode_error(frame->payload, opts_.limits);
    if (!err.ok()) {
      return err.status();
    }
    return from_wire_error(err.value());
  }
  if (rtype != pending_type_ || (frame->header.type & kResponseBit) == 0) {
    return Status::internal("unexpected response type " +
                            std::to_string(frame->header.type));
  }
  return frame;
}

coop::Expected<Frame> Client::round_trip(
    MsgType type, std::span<const std::uint8_t> payload) {
  if (Status s = send_request(type, payload); !s.ok()) {
    return s;
  }
  return recv_response();
}

template <typename Resp>
coop::Expected<Resp> Client::call(
    MsgType type, std::span<const std::uint8_t> payload,
    coop::Expected<Resp> (*decode)(std::span<const std::uint8_t>,
                                   const DecodeLimits&)) {
  auto frame = round_trip(type, payload);
  if (!frame.ok()) {
    return frame.status();
  }
  return decode(frame->payload, opts_.limits);
}

coop::Expected<PathBatchResponse> Client::path_batch(
    const std::string& collection,
    std::span<const serve::PathQuery> queries) {
  PathBatchRequest req{collection, {queries.begin(), queries.end()}};
  return call(MsgType::kPathBatch, encode(req), decode_path_response);
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
  auto frame = round_trip(MsgType::kMetrics, {});
  if (!frame.ok()) {
    return frame.status();
  }
  return std::string(reinterpret_cast<const char*>(frame->payload.data()),
                     frame->payload.size());
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
  DynPathBatchRequest req{collection, {queries.begin(), queries.end()}};
  return call(MsgType::kDynPathBatch, encode(req), decode_dyn_path_response);
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
