#pragma once
// ncpm-rpc v1 TCP server over an engine::Engine. Linux only: a small pool
// of epoll event loops drives nonblocking sockets, and each connection is
// an explicit session FSM (net/session_fsm.hpp) with a timer wheel for
// hello, send-stall and idle timeouts. Per-connection cost is one fd plus a
// few KB of buffers, so one process holds tens of thousands of connections
// (the C10K soak test pins 1024 with flat memory).
//
// The semantics, pinned by tests/net/server_loopback_test.cpp and its
// sibling suites: responses go back out of order as solves resolve;
// backpressure is slot-accounted per connection (every admitted frame holds
// a slot until its response is *sent*); a malformed payload inside a
// well-delimited frame costs one error response while bytes that break the
// framing kill only that connection; a client that stops reading trips the
// send timeout instead of hoarding memory or pinning shutdown; and stop()
// drains every dispatched request before the sockets close and the engine
// shuts down.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "engine/engine.hpp"

namespace ncpm::obs {
class Registry;
class Log;
class TraceRing;
}  // namespace ncpm::obs

namespace ncpm::net {

class MetricsHttpServer;

namespace detail {
struct ServerObs;
class EpollCore;
}  // namespace detail

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; Server::port() reports the bound port
  int backlog = 64;
  /// Reader-side backpressure bound: admitted frames whose response has not
  /// yet been *sent* (engine work and protocol errors alike). At the bound
  /// the connection stops consuming frames, so neither the engine queue nor
  /// the write queue can grow without limit on one connection.
  std::size_t max_in_flight_per_connection = 64;
  /// Cap on how long one connection's responses may sit unsent against a
  /// client that stopped reading; expiry marks the connection broken and
  /// discards its queue. This also bounds how long such a client can stall
  /// stop()'s drain. Zero = block indefinitely (drain then waits on the
  /// slowest client).
  std::chrono::milliseconds send_timeout{30000};
  /// Reap connections that stay fully quiescent (no partial frame, nothing
  /// in flight, nothing to write) this long. Zero = never.
  std::chrono::milliseconds idle_timeout{0};
  /// Handshake liveness bound: a connection that has not completed its
  /// 12-byte client hello this long after accept is closed (counted in
  /// ServerStats::hello_timeouts). Without it a connect()-and-say-nothing
  /// client pins an fd forever. Zero = wait indefinitely.
  std::chrono::milliseconds hello_timeout{10000};
  /// Global admission cap: when the engine's unfulfilled requests (queued +
  /// mid-solve) reach this bound, further requests are shed with
  /// RpcStatus::kOverloaded *before* touching the engine — the server is
  /// live and the client should back off and retry (kRejected, in
  /// contrast, means the server is going away). Since the engine queue is
  /// part of what is outstanding, the cap also bounds queue depth (and so
  /// worst-case queue latency). Zero = no cap.
  std::size_t max_in_flight_global = 0;
  /// Optional HTTP/1.0 `GET /metrics` Prometheus-text endpoint on its own
  /// port (same bind address). nullopt = off; 0 = ephemeral, read the
  /// outcome back with Server::metrics_port().
  std::optional<std::uint16_t> metrics_port;
  /// Per-request trace sampling: every Nth request across the server gets a
  /// TraceSpan in the ring (retrievable via the stats frame; the ring keeps
  /// the latest 256 spans). 0 = off.
  std::uint64_t trace_sample_n = 0;
  /// Structured JSON-lines logging of connection lifecycle, sheds,
  /// malformed frames and drain events (obs::Log). Off by default — the
  /// serving path emits nothing.
  bool log_json = false;
  /// Log destination when log_json is on; null writes lines to stderr.
  /// Called under the log's mutex — keep it cheap (tests capture lines).
  std::function<void(std::string_view)> log_sink;
  /// Slow-request capture: any served request whose solve time reaches this
  /// bound emits one JSON line (mode, instance digest, payload size, queue
  /// and solve ns, per-phase breakdown) on the slow-request log —
  /// independent of log_json, so production can keep lifecycle logging off
  /// while still capturing outliers. Zero = off.
  std::uint64_t slow_request_ns = 0;
  /// Slow-request line destination; null writes lines to stderr. Called
  /// under the slow log's mutex — keep it cheap (tests capture lines).
  std::function<void(std::string_view)> slow_log_sink;
  engine::EngineConfig engine{};
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t malformed_frames = 0;   ///< error responses that never reached the engine
  std::uint64_t overloaded_shed = 0;    ///< requests shed kOverloaded by admission control
  std::uint64_t deadline_shed = 0;      ///< requests already expired before dispatch
  std::uint64_t pings_answered = 0;     ///< keepalive pings answered (no engine, no slot)
  std::uint64_t hello_timeouts = 0;     ///< connections reaped before completing their hello
  std::uint64_t stats_frames_answered = 0;  ///< stats probes answered (no engine, no slot)
  std::uint64_t slow_requests = 0;          ///< solves at/over slow_request_ns, logged
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  /// stop()s if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the event loops. Throws
  /// NetError(kConnectFailed) when the address cannot be bound. A Server is
  /// single-use: calling start() again after stop() throws (the engine is
  /// already drained).
  void start();
  /// Bound port, valid after start() (resolves config port 0).
  std::uint16_t port() const noexcept;
  /// Bound /metrics port, valid after start(); 0 when the endpoint is off.
  std::uint16_t metrics_port() const noexcept;
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// Graceful drain, idempotent: stop accepting, stop reading on every
  /// connection, let each dispatched request finish and flush its
  /// response, close the sockets, drain the engine, join every thread.
  void stop();

  ServerStats stats() const;
  /// The underlying engine (tests compare rpc results against direct
  /// submits on an identically configured engine, not this one).
  engine::Engine& engine() noexcept { return engine_; }
  /// The metrics registry every server and engine series lives in (what
  /// /metrics and the stats frame expose; in-process callers snapshot it
  /// directly).
  obs::Registry& registry() noexcept;

 private:
  ServerConfig config_;
  // Observability state outlives the engine (declared first): the engine's
  // callback gauges deregister in its destructor, which must still find the
  // registry alive.
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Log> log_;
  std::unique_ptr<obs::Log> slow_log_;  ///< slow-request capture; always enabled
  std::unique_ptr<obs::TraceRing> traces_;
  engine::Engine engine_;
  std::unique_ptr<detail::ServerObs> obs_;
  std::unique_ptr<detail::EpollCore> core_;
  std::unique_ptr<MetricsHttpServer> metrics_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  ///< serialises concurrent stop() calls
};

}  // namespace ncpm::net
