#pragma once

// Host-speed calibration.  On a shared VM the speed of one vCPU drifts by
// up to ±25% over tens of seconds while the hypervisor reports no steal
// (presumably other guests sharing its physical core), so a raw figure
// from one run says as much about the neighbours as about the program.
// A fixed loopback TCP round trip between two threads of this process,
// timed on the same CPU as the load while the load is paused, tracks that
// drift (README.md, "Host-speed calibration"); the end-to-end metrics are
// also reported scaled to a reference round trip.
//
// `Pause` is how the load generator stops its closed-loop readers between
// two frames so that a calibration slice runs alone on the CPU.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

/// The reference round trip the scaled metrics are reported at, in µs.
constexpr double kRefRoundTripUs = 10.0;

/// Lets a monitor thread hold closed-loop readers between two frames.
/// Each reader calls `checkpoint()` before it sends a frame and `leave()`
/// once when it stops; `hold()` returns when every reader still running
/// is parked, so no frame is in flight until `release()`.
class Pause {
 public:
  explicit Pause(int readers) : running_(readers) {}

  void checkpoint() {
    if (!on_.load(std::memory_order_acquire)) {
      return;
    }
    parked_.fetch_add(1, std::memory_order_acq_rel);
    while (on_.load(std::memory_order_acquire)) {
      on_.wait(true, std::memory_order_acquire);
    }
    parked_.fetch_sub(1, std::memory_order_acq_rel);
  }
  void leave() { running_.fetch_sub(1, std::memory_order_acq_rel); }

  void hold() {
    on_.store(true, std::memory_order_release);
    while (parked_.load(std::memory_order_acquire) <
           running_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void release() {
    on_.store(false, std::memory_order_release);
    on_.notify_all();
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<int> parked_{0};
  std::atomic<int> running_;
};

/// A connected loopback TCP pair and an echo thread.  `slice_us()` times
/// `kRoundTrips` round trips of a 64-byte message one by one and returns
/// their median, so a stray wakeup of another thread moves it little.
class Calibrator {
 public:
  static constexpr int kRoundTrips = 101;
  static constexpr std::size_t kMessage = 64;

  Calibrator() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0 ||
        (near_ = ::socket(AF_INET, SOCK_STREAM, 0)) < 0 ||
        ::connect(near_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        (far_ = ::accept(listener, nullptr, nullptr)) < 0) {
      if (listener >= 0) {
        ::close(listener);
      }
      close_all();
      throw std::runtime_error("calibrator: loopback TCP set-up failed");
    }
    ::close(listener);
    const int one = 1;
    ::setsockopt(near_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(far_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    echo_ = std::thread([fd = far_] {
      char msg[kMessage];
      while (::recv(fd, msg, kMessage, MSG_WAITALL) ==
                 static_cast<ssize_t>(kMessage) &&
             ::send(fd, msg, kMessage, 0) == static_cast<ssize_t>(kMessage)) {
      }
    });
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;
  ~Calibrator() {
    ::shutdown(near_, SHUT_RDWR);
    echo_.join();
    close_all();
  }

  /// Median round trip of one slice, in µs.
  double slice_us() {
    char msg[kMessage] = {};
    std::vector<double> us(kRoundTrips);
    for (double& u : us) {
      const auto t0 = std::chrono::steady_clock::now();
      if (::send(near_, msg, kMessage, 0) != static_cast<ssize_t>(kMessage) ||
          ::recv(near_, msg, kMessage, MSG_WAITALL) !=
              static_cast<ssize_t>(kMessage)) {
        throw std::runtime_error("calibrator: loopback round trip failed");
      }
      u = std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
    std::nth_element(us.begin(), us.begin() + kRoundTrips / 2, us.end());
    return us[kRoundTrips / 2];
  }

 private:
  void close_all() {
    for (int* fd : {&near_, &far_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  int near_ = -1;
  int far_ = -1;
  std::thread echo_;
};

}  // namespace perfbench
