// net::Client against a raw-socket peer: the peer writes exactly the
// bytes each test needs (a reply split into single bytes, two replies in
// one send, a frame cut short, nothing at all, a lying length prefix),
// so the client's framing, buffering and typed transport failures are
// checked without a net::Server in the way.

#include "net/client.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.hpp"

namespace {

using coop::StatusCode;

/// A loopback listener whose accepted connection the test drives by hand.
class RawPeer {
 public:
  RawPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawPeer() {
    close_conn();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept the client's connection (it is queued once connect returns).
  void accept() { fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  /// Close the connection; with `reset`, by RST (SO_LINGER 0).
  void close_conn(bool reset = false) {
    if (fd_ >= 0) {
      if (reset) {
        const linger lg{1, 0};
        (void)::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      }
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Read one whole request frame, length prefix included.
  std::vector<std::uint8_t> read_request_bytes() {
    std::vector<std::uint8_t> bytes(sizeof(std::uint32_t));
    read_exact(bytes.data(), bytes.size());
    std::uint32_t prefix = 0;
    std::memcpy(&prefix, bytes.data(), sizeof(prefix));
    bytes.resize(sizeof(prefix) + prefix);
    read_exact(bytes.data() + sizeof(prefix), prefix);
    return bytes;
  }

  /// Read one whole request frame and return its header.
  net::FrameHeader read_request() {
    auto frame = net::decode_frame(read_request_bytes());
    EXPECT_TRUE(frame.ok()) << frame.status().to_string();
    return frame.ok() ? frame->header : net::FrameHeader{};
  }

  void send_bytes(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  void read_exact(std::uint8_t* p, std::size_t n) {
    while (n != 0) {
      const ssize_t got = ::recv(fd_, p, n, 0);
      ASSERT_GT(got, 0);
      p += got;
      n -= static_cast<std::size_t>(got);
    }
  }

  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A HEALTH reply to request `id` that names one collection.
std::vector<std::uint8_t> health_reply(std::uint64_t id,
                                       const std::string& name) {
  net::HealthResponse resp;
  resp.collections.push_back({name, id, 0});
  net::FrameHeader h;
  h.type = static_cast<std::uint16_t>(net::MsgType::kHealth) |
           net::kResponseBit;
  h.request_id = id;
  return net::encode_frame(h, net::encode(resp));
}

net::Client connect_to(const RawPeer& peer,
                       std::chrono::nanoseconds io_timeout =
                           std::chrono::seconds(5)) {
  net::ClientOptions opts;
  opts.io_timeout = io_timeout;
  auto c = net::Client::connect("127.0.0.1", peer.port(), opts);
  EXPECT_TRUE(c.ok()) << c.status().to_string();
  return c.take();
}

TEST(ClientFraming, ReplyWrittenOneBytePerSendIsReadWhole) {
  RawPeer peer;
  net::Client client = connect_to(peer);
  peer.accept();
  std::thread writer([&] {
    const net::FrameHeader req = peer.read_request();
    const std::vector<std::uint8_t> reply =
        health_reply(req.request_id, "trickled");
    for (const std::uint8_t b : reply) {
      peer.send_bytes({&b, 1});
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  auto health = client.health();
  writer.join();
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  ASSERT_EQ(health->collections.size(), 1u);
  EXPECT_EQ(health->collections[0].name, "trickled");
}

TEST(ClientFraming, TwoRepliesInOneSendAreReadInOrder) {
  RawPeer peer;
  net::Client client = connect_to(peer);
  peer.accept();
  ASSERT_TRUE(client.send_request(net::MsgType::kHealth, {}).ok());
  const net::FrameHeader first = peer.read_request();
  // The reply to this request and to the next one, in one send: the
  // second must wait in the client's buffer for the next read.
  std::vector<std::uint8_t> both = health_reply(first.request_id, "first");
  const std::vector<std::uint8_t> second =
      health_reply(first.request_id + 1, "second");
  both.insert(both.end(), second.begin(), second.end());
  peer.send_bytes(both);

  auto a = client.recv_response();
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  EXPECT_EQ(a->header.request_id, first.request_id);
  auto b = client.health();  // answered from the bytes already received
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  ASSERT_EQ(b->collections.size(), 1u);
  EXPECT_EQ(b->collections[0].name, "second");
  EXPECT_EQ(peer.read_request().request_id, first.request_id + 1);
  auto decoded = net::decode_health(a->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->collections[0].name, "first");
}

TEST(ClientFraming, PathRequestsOnTheWireAreEncodeFrameBytes) {
  RawPeer peer;
  net::Client client = connect_to(peer);
  client.options().tenant = 5;
  client.options().deadline_ns = 9'000'000;
  peer.accept();
  const std::vector<serve::PathQuery> big = {
      {{0, 1, 3}, 17}, {{0, 2}, -4}, {{}, 8}};
  const std::vector<serve::PathQuery> small = {{{0}, 2}};
  // A large request, a smaller one of the other verb and the large one
  // again, all framed into the client's one send buffer.
  const std::vector<std::pair<net::MsgType, std::vector<serve::PathQuery>>>
      sent = {{net::MsgType::kPathBatch, big},
              {net::MsgType::kDynPathBatch, small},
              {net::MsgType::kPathBatch, big}};
  std::vector<std::vector<std::uint8_t>> wire;
  std::thread replier([&] {
    for (const auto& [verb, queries] : sent) {
      wire.push_back(peer.read_request_bytes());
      auto frame = net::decode_frame(wire.back());
      ASSERT_TRUE(frame.ok()) << frame.status().to_string();
      net::FrameHeader h = frame->header;
      h.type = static_cast<std::uint16_t>(h.type | net::kResponseBit);
      peer.send_bytes(net::encode_frame(
          h, verb == net::MsgType::kPathBatch
                 ? net::encode_path_response(1, false, {})
                 : net::encode_dyn_path_response(1, 0, {})));
    }
  });
  for (const auto& [verb, queries] : sent) {
    const coop::Status s =
        verb == net::MsgType::kPathBatch
            ? client.path_batch("main", queries).status()
            : client.dyn_path_batch("main", queries).status();
    EXPECT_TRUE(s.ok()) << s.to_string();
  }
  replier.join();
  ASSERT_EQ(wire.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    net::FrameHeader h;
    h.type = static_cast<std::uint16_t>(sent[i].first);
    h.request_id = i + 1;
    h.tenant = 5;
    h.deadline_ns = 9'000'000;
    EXPECT_EQ(wire[i], net::encode_frame(h, net::encode_path_request(
                                                "main", sent[i].second)))
        << "request " << i;
  }
}

TEST(ClientFraming, PeerClosingOrResettingMidFrameIsUnavailable) {
  for (const bool reset : {false, true}) {
    RawPeer peer;
    net::Client client = connect_to(peer);
    peer.accept();
    ASSERT_TRUE(client.send_request(net::MsgType::kHealth, {}).ok());
    const std::vector<std::uint8_t> reply =
        health_reply(peer.read_request().request_id, "cut");
    peer.send_bytes(std::span(reply).first(reply.size() / 2));
    peer.close_conn(reset);
    auto resp = client.recv_response();
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
    // Callers tell a lost connection from a shed by this word.
    EXPECT_NE(resp.status().message().find("connection"), std::string::npos)
        << (reset ? "reset: " : "close: ") << resp.status().to_string();
  }
}

TEST(ClientFraming, SilentPeerIsDeadlineExceededAfterIoTimeout) {
  RawPeer peer;
  net::Client client = connect_to(peer, std::chrono::milliseconds(200));
  peer.accept();
  const auto t0 = std::chrono::steady_clock::now();
  auto health = client.health();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.status().code(), StatusCode::kDeadlineExceeded)
      << health.status().to_string();
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(ClientFraming, OutOfRangeLengthPrefixIsCorrupted) {
  for (const std::uint32_t prefix :
       {std::uint32_t{0}, std::uint32_t{43}, std::uint32_t{1} << 30}) {
    RawPeer peer;
    net::Client client = connect_to(peer);
    peer.accept();
    ASSERT_TRUE(client.send_request(net::MsgType::kHealth, {}).ok());
    (void)peer.read_request();
    std::uint8_t bytes[sizeof(prefix)];
    std::memcpy(bytes, &prefix, sizeof(prefix));
    peer.send_bytes(bytes);
    auto resp = client.recv_response();
    ASSERT_FALSE(resp.ok()) << "prefix " << prefix;
    EXPECT_EQ(resp.status().code(), StatusCode::kCorrupted)
        << resp.status().to_string();
  }
}

}  // namespace
