// C10K-class soak for the epoll server core (CTest label: soak).
//
// Holds NCPM_SOAK_CONNECTIONS (default 1024) concurrent connections against
// one server process and drives pipelined mixed-mode requests down every
// one of them, asserting the three properties that justify the reactor:
//
//   1. Zero dropped or duplicated responses — every request id comes back
//      exactly once on its own connection.
//   2. Byte-identical results to direct Engine::submit — the wire path adds
//      connections, not answers.
//   3. Flat per-connection memory — RSS growth across the ramp from 0 to
//      every connection live stays under a small per-connection budget
//      (sessions are buffers, not thread pairs).
//
// Skipped under ASan/TSan (sanitizer overheads distort both the memory
// bound and the fd budget); CI runs it in a dedicated Release job via
// `ctest -L soak`.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NCPM_SOAK_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NCPM_SOAK_SANITIZED 1
#endif
#endif

namespace ncpm::net {
namespace {

using engine::Mode;

std::size_t configured_connections() {
  if (const char* env = std::getenv("NCPM_SOAK_CONNECTIONS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 1024;
}

/// Current resident set in KiB from /proc/self/status (Linux-only, like
/// the reactor itself).
std::size_t rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

/// Best-effort RLIMIT_NOFILE raise; returns the resulting soft limit.
std::size_t ensure_fd_budget(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur = (lim.rlim_max == RLIM_INFINITY)
                          ? want
                          : std::min<rlim_t>(lim.rlim_max, static_cast<rlim_t>(want));
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

constexpr Mode kSoakModes[] = {Mode::kSolve, Mode::kCount, Mode::kCheck, Mode::kMaxCard};
constexpr std::size_t kRequestsPerConnection = std::size(kSoakModes);

TEST(ServerSoak, C10KPipelinedConnectionsFlatMemoryNoDrops) {
#ifdef NCPM_SOAK_SANITIZED
  GTEST_SKIP() << "soak is a Release-only test; sanitizer overhead distorts its bounds";
#endif
  const std::size_t connections = configured_connections();
  // Client + server fds, the loops, and ambient process fds.
  const std::size_t fd_budget = ensure_fd_budget(2 * connections + 64);
  if (fd_budget < 2 * connections + 64) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << fd_budget << " cannot hold " << connections
                 << " loopback connections";
  }

  ServerConfig cfg;
  cfg.backlog = 256;
  cfg.engine = engine::EngineConfig{2, 1};
  Server server(cfg);
  server.start();
  ASSERT_GT(server.port(), 0);

  // Small instance => small frames: the soak measures connection scaling,
  // not solver throughput.
  gen::SolvableConfig icfg;
  icfg.num_applicants = 12;
  icfg.num_posts = 30;
  icfg.seed = 77;
  const auto inst = gen::solvable_strict_instance(icfg);

  // Reference results straight off an identically configured engine.
  std::vector<engine::Result> reference;
  {
    engine::Engine direct(engine::EngineConfig{1, 1});
    for (const auto mode : kSoakModes) {
      reference.push_back(direct.submit(engine::Request::popular(mode, inst)).get());
    }
  }
  std::vector<std::string> request_frames;
  for (std::size_t i = 0; i < kRequestsPerConnection; ++i) {
    RequestHead head;
    head.request_id = i + 1;
    head.mode_raw = static_cast<std::uint8_t>(kSoakModes[i]);
    request_frames.push_back(encode_request_frame(head, inst));
  }

  const std::size_t rss_before_kib = rss_kib();

  // Ramp: connect + handshake every client socket up front so the memory
  // measurement sees all of them live at once.
  std::vector<Socket> clients;
  clients.reserve(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    clients.push_back(Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(30)));
    clients.back().set_recv_timeout(std::chrono::seconds(120));
    send_hello(clients.back());
    ASSERT_TRUE(expect_hello(clients.back())) << "handshake failed on connection " << i;
  }

  // Drive the full pipelined round on every connection from a bounded
  // worker pool (the point is many connections, not many client threads).
  const std::size_t num_workers = 8;
  std::vector<std::thread> workers;
  std::vector<std::string> failures(num_workers);
  std::atomic<std::size_t> responses_ok{0};
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (std::size_t c = w; c < connections; c += num_workers) {
          auto& sock = clients[c];
          for (const auto& frame : request_frames) {
            sock.send_all(frame.data(), frame.size());
          }
          std::vector<bool> seen(kRequestsPerConnection, false);
          std::vector<std::uint8_t> body;
          for (std::size_t r = 0; r < kRequestsPerConnection; ++r) {
            if (!read_frame_body(sock, body)) {
              throw std::runtime_error("connection " + std::to_string(c) +
                                       " closed early (dropped response)");
            }
            const auto resp = decode_response_frame(body.data(), body.size());
            if (resp.request_id < 1 || resp.request_id > kRequestsPerConnection ||
                seen[resp.request_id - 1]) {
              throw std::runtime_error("bad/duplicate response id on connection " +
                                       std::to_string(c));
            }
            seen[resp.request_id - 1] = true;
            const auto& ref = reference[resp.request_id - 1];
            if (resp.status != RpcStatus::kOk || ref.status != engine::Status::kOk) {
              throw std::runtime_error("non-ok status on connection " + std::to_string(c));
            }
            if (resp.matching.has_value() != ref.matching.has_value()) {
              throw std::runtime_error("matching presence mismatch");
            }
            if (ref.matching.has_value() &&
                io::encode_matching_payload(*resp.matching) !=
                    io::encode_matching_payload(*ref.matching)) {
              throw std::runtime_error("matching bytes diverge from direct engine");
            }
            if (resp.count != ref.count) {
              throw std::runtime_error("count diverges from direct engine");
            }
            ++responses_ok;
          }
        }
      } catch (const std::exception& e) {
        failures[w] = e.what();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& f : failures) ASSERT_TRUE(f.empty()) << f;
  EXPECT_EQ(responses_ok.load(), connections * kRequestsPerConnection);

  // Flat memory: with every connection still live and a full round of
  // traffic behind each, per-connection cost must stay in buffer range —
  // 64 KiB/connection plus 32 MiB of slack for the engine and allocator.
  const std::size_t rss_after_kib = rss_kib();
  const std::size_t delta_kib =
      rss_after_kib > rss_before_kib ? rss_after_kib - rss_before_kib : 0;
  EXPECT_LE(delta_kib, connections * 64 + 32 * 1024)
      << "RSS grew " << delta_kib << " KiB across " << connections << " connections";

  const auto mid_stats = server.stats();
  EXPECT_EQ(mid_stats.connections_accepted, connections);
  EXPECT_EQ(mid_stats.connections_active, connections);

  for (auto& sock : clients) sock.close();
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.frames_received, connections * kRequestsPerConnection);
  EXPECT_EQ(stats.responses_sent, connections * kRequestsPerConnection);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

}  // namespace
}  // namespace ncpm::net
