#pragma once
// Internal seam between the net::Server facade and its epoll core.
//
// The facade owns the engine, the config, and the observability state; the
// core (EpollCore, reactor.cpp) owns the listener, a pool of epoll event
// loops, and one Session per connection (session.cpp). The contract it
// serves is docs/ncpm-rpc-v1.md, pinned by the loopback / resilience /
// stats / chaos suites in tests/net/.
//
// Not installed, not included by client code — server.cpp, reactor.cpp and
// session.cpp only.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "net/reactor.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ncpm::net::detail {

/// The facade's observability surface, shared with the core and its sessions.
/// The counters/gauge are handles into the facade's obs::Registry (so the
/// same series serve ServerStats, the /metrics endpoint, and stats frames);
/// log and traces are the facade's event log and trace ring.
struct ServerObs {
  ServerObs(obs::Registry& registry_in, obs::Log& log_in, obs::Log& slow_log_in,
            obs::TraceRing& traces_in);
  ServerObs(const ServerObs&) = delete;
  ServerObs& operator=(const ServerObs&) = delete;

  obs::Registry& registry;
  obs::Log& log;
  /// Slow-request capture stream (ServerConfig::slow_request_ns); enabled by
  /// the facade whenever the threshold is nonzero, independent of log_json.
  obs::Log& slow_log;
  obs::TraceRing& traces;

  obs::Counter& connections_accepted;
  obs::Gauge& connections_active;
  obs::Counter& frames_received;
  obs::Counter& responses_sent;
  obs::Counter& malformed_frames;
  obs::Counter& overloaded_shed;
  obs::Counter& deadline_shed;
  obs::Counter& pings_answered;
  obs::Counter& hello_timeouts;
  obs::Counter& stats_frames_answered;
  obs::Counter& slow_requests;

  /// Monotone connection id source: the correlation key tying log lines and
  /// trace spans to one accepted socket.
  std::atomic<std::uint64_t> next_conn_id{1};
};

/// The connection core: a small pool of epoll event loops (EventLoop) over
/// nonblocking sockets, one Session per connection. The listener lives on
/// loop 0, which hands accepted sockets out round-robin; every Session is
/// born, runs, and dies on its loop's thread.
class EpollCore final : public FdHandler {
 public:
  EpollCore(const ServerConfig& config, engine::Engine& engine, ServerObs& obs);
  ~EpollCore() override;
  EpollCore(const EpollCore&) = delete;
  EpollCore& operator=(const EpollCore&) = delete;

  /// Bind + listen + start the event loops. Throws NetError on bind
  /// failure. port() is valid afterwards.
  void start();
  /// Stop accepting, drain every session (each flushes its admitted
  /// requests' responses, then closes), join every loop thread. The facade
  /// drains the engine afterwards (nothing can submit once stop() returns).
  void stop();

  std::uint16_t port() const noexcept { return port_; }

  /// Loop 0 thread: the listener is readable.
  void on_io(std::uint32_t events) override;

 private:
  struct LoopState;

  const ServerConfig& config_;
  engine::Engine& engine_;
  ServerObs& obs_;
  std::uint16_t port_ = 0;

  Socket listener_;
  std::vector<std::unique_ptr<LoopState>> loops_;
  std::atomic<bool> draining_{false};
  std::size_t next_loop_ = 0;  ///< loop 0 thread only (round-robin cursor)

  std::mutex live_mu_;
  std::condition_variable live_cv_;
  std::size_t live_sessions_ = 0;  ///< guarded by live_mu_
};

/// Decode one request frame body and route it: protocol errors produce an
/// immediate error frame; everything else goes into the engine. `deliver`
/// receives the complete encoded response frame exactly once — possibly
/// synchronously (malformed payloads, unknown modes, shed requests, engine
/// rejection) or later from an engine worker thread, so it must be safe to
/// call from any thread. Two shedding gates run after the head decodes but
/// before the (comparatively expensive) instance payload does: a request
/// whose relative deadline already elapsed between receipt and dispatch is
/// answered kDeadlineExpired, and when config's global in-flight cap or
/// queue watermark is breached the request is answered kOverloaded — both
/// without touching the engine. Increments malformed_frames /
/// overloaded_shed / deadline_shed, emits shed/malformed log events, and
/// commits a trace span when this request was sampled; the caller owns
/// frames_received (counted at receipt) and responses_sent (a response
/// only counts once it is on the wire). `conn_id` and `accepted` identify
/// the connection for log correlation and the span's accept timestamp.
void dispatch_request(engine::Engine& engine, ServerObs& obs, const ServerConfig& config,
                      const std::vector<std::uint8_t>& body,
                      std::chrono::steady_clock::time_point receipt, std::uint64_t conn_id,
                      std::chrono::steady_clock::time_point accepted,
                      std::function<void(std::string)> deliver);

}  // namespace ncpm::net::detail
