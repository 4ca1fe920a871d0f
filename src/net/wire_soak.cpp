#include "net/wire_soak.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tree.hpp"
#include "geom/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "pointloc/separator_tree.hpp"
#include "robust/chaos.hpp"
#include "robust/corrupt.hpp"
#include "robust/soak.hpp"
#include "snapshot/snapshot.hpp"

namespace net {

using coop::Status;
using coop::StatusCode;

namespace {

/// The tenant the quota-storm mode hammers; normal clients use ci+1.
constexpr std::uint64_t kHotTenant = 1000;

}  // namespace

coop::Expected<WireSoakOutcome> run_wire_soak(const WireSoakOptions& opts) {
  // ---- Fixtures: a cascade tree and a point-location subdivision, both
  // snapshotted to disk so LOAD/SWAP storms exercise the real admin
  // path. ----
  std::mt19937_64 fixture_rng(opts.seed);
  const cat::Tree tree =
      cat::make_balanced_binary(opts.tree_height, opts.tree_entries,
                                cat::CatalogShape::kRandom, fixture_rng);
  auto flat = serve::FlatCascade::compile_tree(tree);
  if (!flat.ok()) {
    return flat.status();
  }
  if (Status st = snapshot::write(*flat, opts.snap_path); !st.ok()) {
    return st;
  }
  const auto sub = geom::make_random_monotone(opts.pointloc_regions,
                                              opts.pointloc_regions * 2,
                                              fixture_rng);
  const pointloc::SeparatorTree septree(sub);
  auto ploc = serve::FlatPointLocator::compile(septree);
  if (!ploc.ok()) {
    return ploc.status();
  }
  if (Status st = snapshot::write(*ploc, opts.point_snap_path); !st.ok()) {
    return st;
  }

  // ---- Server under test, on an ephemeral loopback port. ----
  ServerOptions sopts;
  sopts.port = 0;
  sopts.workers = opts.server_workers;
  sopts.engine_threads = opts.engine_threads;
  sopts.idle_timeout = std::chrono::seconds(30);
  sopts.write_stall_timeout = std::chrono::seconds(2);
  sopts.quota.tokens_per_sec = 2000;
  sopts.quota.burst = 400;
  sopts.frontend.max_inflight = 16;
  sopts.frontend.max_retries = 1;
  sopts.frontend.breaker_threshold = 1u << 30;  // breaker noise off: the
  // wire soak studies transport faults; breaker behaviour has its own
  // soak (serve::run_chaos_soak).
  auto started = Server::start(sopts);
  if (!started.ok()) {
    return started.status();
  }
  std::unique_ptr<Server> server = started.take();
  const std::uint16_t port = server->port();

  for (const auto& [name, path] :
       {std::pair{"main", opts.snap_path}, std::pair{"alt", opts.snap_path},
        std::pair{"points", opts.point_snap_path}}) {
    auto snap = snapshot::open(path);
    if (!snap.ok()) {
      return snap.status();
    }
    if (Status st = server->collections().load(name, snap.take()); !st.ok()) {
      return st;
    }
  }

  WireSoakOutcome out;
  robust::FirstFailure fail(out.first_failure);
  std::atomic<bool> stop{false};
  std::atomic<bool> drain_started{false};

  // ---- Client fleet. ----
  const std::size_t n_clients = std::max<std::size_t>(1, opts.clients);
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t ci = 0; ci < n_clients; ++ci) {
    clients.emplace_back([&, ci] {
      std::mt19937_64 rng(opts.seed ^ (0x00D1A1ull * (ci + 1)));
      ClientOptions copts;
      copts.tenant = ci + 1;
      copts.io_timeout = std::chrono::seconds(2);
      Client client;

      const auto reconnect = [&]() -> bool {
        auto c = Client::connect("127.0.0.1", port, copts);
        if (!c.ok()) {
          return false;
        }
        client = c.take();
        robust::bump(out.reconnects);
        return true;
      };

      const auto make_batch = [&](std::size_t n) {
        return serve::random_path_batch(tree, rng, n);
      };
      /// A hand-framed single-query path request (for the raw-byte fault
      /// modes that bypass the round-trip helper).
      const auto raw_frame = [&](std::uint64_t request_id,
                                 std::uint64_t tenant) {
        PathBatchRequest req;
        req.collection = "main";
        req.queries = make_batch(1);
        FrameHeader h;
        h.type = static_cast<std::uint16_t>(MsgType::kPathBatch);
        h.request_id = request_id;
        h.tenant = tenant;
        return encode_frame(h, encode(req));
      };
      std::uint64_t raw_id = 1;
      const auto raw_request = [&] {
        return raw_frame(0x5000'0000 + (ci << 20) + raw_id++, copts.tenant);
      };

      /// Shared triage for batch statuses.  Returns true when the client
      /// should exit (server is draining).
      const auto triage = [&](const Status& s, bool deadline_ok) -> bool {
        if (s.code() == StatusCode::kResourceExhausted) {
          robust::bump(out.quota_sheds);
          return false;
        }
        if (s.code() == StatusCode::kUnavailable) {
          if (drain_started.load(std::memory_order_acquire)) {
            robust::bump(out.drain_refusals);
            return true;  // lame duck: this client is done
          }
          fail(out.failed,
               "unexpected UNAVAILABLE before drain: " + s.to_string());
          return false;
        }
        if (s.code() == StatusCode::kDeadlineExceeded) {
          if (deadline_ok) {
            robust::bump(out.deadline_errors);
          } else {
            fail(out.failed, "unexpected deadline error: " + s.to_string());
          }
          return false;
        }
        fail(out.failed, "unexpected status: " + s.to_string());
        return false;
      };

      for (std::uint64_t iter = 0;
           !stop.load(std::memory_order_acquire); ++iter) {
        if (!client.connected() && !reconnect()) {
          if (drain_started.load(std::memory_order_acquire)) {
            return;  // listener is gone: drain in progress
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const std::uint64_t mode =
            robust::chaos_mix(opts.seed, 100 + ci, iter) % 16;
        switch (mode) {
          default:    // modes 0..8: a normal path batch
          case 10: {  // deadline squeeze: a 1 ns budget must come back
                      // as a typed DEADLINE_EXCEEDED, never a late answer
            const bool squeeze = mode == 10;
            const auto batch = make_batch(opts.batch_queries);
            copts.deadline_ns = squeeze ? 1 : 0;
            client.options() = copts;
            auto resp = client.path_batch(
                !squeeze && (iter & 1) != 0 ? "alt" : "main", batch);
            copts.deadline_ns = 0;
            robust::bump(out.batches);
            if (resp.ok()) {
              // A squeezed batch is answered only if the server truly
              // beat the clock; the answers must still be right.
              robust::bump(out.answered);
              robust::bump(out.wrong_answers,
                           serve::count_path_mismatches(tree, batch,
                                                        resp->answers));
            } else if (triage(resp.status(), /*deadline_ok=*/squeeze)) {
              return;
            }
            break;
          }
          case 9: {  // a normal point batch with its own oracle
            std::vector<geom::Point> pts(opts.batch_queries / 2);
            std::vector<std::size_t> expect(pts.size());
            for (std::size_t i = 0; i < pts.size(); ++i) {
              pts[i] = geom::random_query_point(sub, rng);
              expect[i] = sub.locate_brute(pts[i]);
            }
            copts.deadline_ns = 0;
            client.options() = copts;
            auto resp = client.point_batch("points", pts);
            robust::bump(out.batches);
            if (resp.ok()) {
              robust::bump(out.answered);
              bool bad = resp->regions.size() != expect.size();
              for (std::size_t i = 0; !bad && i < expect.size(); ++i) {
                bad = resp->regions[i] != expect[i];
              }
              if (bad) {
                robust::bump(out.wrong_answers);
              }
            } else if (triage(resp.status(), /*deadline_ok=*/false)) {
              return;
            }
            break;
          }
          case 11: {  // corrupted frame injection
            auto frame = raw_request();
            const robust::CorruptionKind kind =
                robust::kAllWireFaultKinds[iter % 3];
            if (!robust::corrupt_frame(
                     frame, kind, robust::chaos_mix(opts.seed, 7, iter))
                     .ok()) {
              break;
            }
            robust::bump(out.malformed_injected);
            if (!client.send_raw(frame).ok()) {
              client.close();
              break;
            }
            if (kind == robust::CorruptionKind::kWireTruncated) {
              // The server is (correctly) waiting for bytes that will
              // never come; hang up and let its reassembly discard them.
              client.close();
              break;
            }
            auto resp = client.read_frame();
            if (resp.ok() &&
                static_cast<MsgType>(resp->header.type & ~kResponseBit) ==
                    MsgType::kError) {
              auto err = decode_error(resp->payload);
              if (err.ok() &&
                  static_cast<StatusCode>(err->code) ==
                      StatusCode::kCorrupted) {
                robust::bump(out.malformed_rejected);
              }
            }
            client.close();  // server closes its side too; resync
            break;
          }
          case 12: {  // connection reset mid-batch
            auto frame = raw_request();
            if (client.send_raw(frame).ok()) {
              robust::bump(out.resets_injected);
            }
            client.close_abruptly();  // RST while the batch may be in
                                      // flight; response must be dropped,
                                      // never crash the server
            break;
          }
          case 13: {  // slow reader: answer sits in the socket a while
            auto frame = raw_request();
            if (!client.send_raw(frame).ok()) {
              client.close();
              break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            auto resp = client.read_frame();
            if (resp.ok()) {
              robust::bump(out.slow_reads);
            } else {
              client.close();
            }
            break;
          }
          case 14: {  // quota storm: one hot tenant pipelines a burst
                      // past its bucket in a single write, so the bucket
                      // cannot refill between admissions no matter how
                      // slow a round trip is on this machine; the
                      // overflow must be shed, never served late
            if (ci != 0) {
              break;  // one storm source keeps volume bounded
            }
            constexpr int kStormFrames = 600;  // bucket burst is 400
            std::vector<std::uint8_t> blast;
            blast.reserve(kStormFrames * 160);
            for (int k = 0; k < kStormFrames; ++k) {
              const auto bytes = raw_frame(
                  0x6000'0000 + (iter << 12) + static_cast<std::uint64_t>(k),
                  kHotTenant);
              blast.insert(blast.end(), bytes.begin(), bytes.end());
            }
            if (!client.send_raw(blast).ok()) {
              client.close();
              break;
            }
            bool draining_out = false;
            for (int k = 0; k < kStormFrames; ++k) {
              auto resp = client.read_frame();
              if (!resp.ok()) {
                client.close();
                break;
              }
              if (static_cast<MsgType>(resp->header.type & ~kResponseBit) !=
                  MsgType::kError) {
                continue;  // served inside the budget: fine
              }
              auto err = decode_error(resp->payload);
              if (!err.ok()) {
                continue;
              }
              const Status s = from_wire_error(err.value());
              if (s.code() == StatusCode::kResourceExhausted) {
                robust::bump(out.quota_sheds);
              } else if (triage(s, /*deadline_ok=*/false)) {
                draining_out = true;  // keep reading what's in flight
              }
            }
            if (draining_out) {
              return;
            }
            break;
          }
          case 15: {  // health + metrics probes stay answerable
            auto h = client.health();
            if (!h.ok() &&
                triage(h.status(), /*deadline_ok=*/false)) {
              return;
            }
            break;
          }
        }
      }
    });
  }

  // ---- Conductor: SWAP storms + LOAD/UNLOAD cycles under traffic. ----
  std::thread conductor([&] {
    ClientOptions copts;
    copts.io_timeout = std::chrono::seconds(2);
    auto c = Client::connect("127.0.0.1", port, copts);
    if (!c.ok()) {
      return;
    }
    Client admin = c.take();
    for (std::uint64_t cycle = 0;
         !stop.load(std::memory_order_acquire) &&
         !drain_started.load(std::memory_order_acquire);
         ++cycle) {
      const std::uint32_t burst =
          1 + static_cast<std::uint32_t>(
                  robust::chaos_mix(opts.seed, 55, cycle) % 3);
      for (std::uint32_t b = 0; b < burst; ++b) {
        const std::string col = (cycle + b) % 2 == 0 ? "main" : "alt";
        auto v = admin.swap(col, opts.snap_path);
        if (v.ok()) {
          robust::bump(out.swaps);
        } else if (v.status().code() == StatusCode::kUnavailable) {
          return;
        }
      }
      if (cycle % 3 == 0) {
        auto v = admin.load("ephemeral", opts.point_snap_path);
        if (v.ok() && admin.unload("ephemeral").ok()) {
          robust::bump(out.load_unload_cycles);
        }
      }
      if (opts.verbose && cycle % 50 == 0) {
        std::fprintf(stderr, "wire-soak: cycle %llu swaps=%llu\n",
                     static_cast<unsigned long long>(cycle),
                     static_cast<unsigned long long>(
                         robust::peek(out.swaps)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // ---- Run until every goal is observed (bounded), then drain
  // mid-traffic. ----
  robust::run_until_goals(opts.duration,
                          [&] { return robust::goals_reached(out); });

  // Drain while clients are still firing: in-flight batches must finish,
  // new ones must get typed refusals, and the server must report fully
  // drained inside the grace window.
  drain_started.store(true, std::memory_order_release);
  server->begin_drain();
  out.drained_in_grace = server->wait_drained(opts.drain_grace);

  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) {
    t.join();
  }
  conductor.join();
  const ServerStats sstats = server->stats();
  server->stop();

  robust::judge(out,
                "zero wrong answers, zero unexpected statuses; server "
                "survived resets, corrupt frames, deadline squeezes, quota "
                "storms, swap storms, and drained cleanly (" +
                    std::to_string(sstats.malformed) +
                    " malformed frames rejected)");
  std::remove(opts.snap_path.c_str());
  std::remove(opts.point_snap_path.c_str());
  return out;
}

}  // namespace net
