#pragma once
// Seeded in-process fault-injection TCP proxy, for the chaos suite.
//
// A ChaosProxy listens on its own ephemeral port and relays every accepted
// connection to the real server, byte-for-byte — except where its config
// says otherwise. Faults are injected *between* the client and server
// sockets, so both ends experience exactly what a hostile network would
// deliver: torn frames (writes sliced at arbitrary byte boundaries),
// per-slice delivery delay, flipped bytes, stalls that stop draining the
// server until its send timeout trips, and mid-frame RST resets.
//
// Determinism: every probabilistic choice draws from a per-connection,
// per-direction xorshift stream seeded from (config.seed, connection index,
// direction), so a failing chaos run replays byte-for-byte from its seed.
// The byte-offset one-shot faults (reset_after_client_bytes etc.) count
// bytes across the whole proxy lifetime and fire exactly once — tests use
// them to hit a precise wire position, e.g. "reset mid-frame on the third
// request".
//
// Scale: one relay thread per direction per connection (blocking sockets),
// which is fine — chaos tests run a handful of connections, not ten
// thousand. Test support only: built into a static target under tests/
// that the chaos suite alone links, never into the shipped ncpm_net.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace ncpm::net {

struct ChaosConfig {
  /// Upstream (real server) address.
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  /// Proxy listen address; port 0 picks an ephemeral one (see port()).
  std::string bind_address = "127.0.0.1";
  std::uint16_t listen_port = 0;

  /// Root of every per-connection RNG stream. Same seed, same faults.
  std::uint64_t seed = 1;

  /// Relay writes are sliced into chunks of 1..max_chunk bytes drawn from
  /// the stream — every frame crosses the wire torn into arbitrary pieces.
  /// 0 disables tearing (whole reads relay in one write).
  std::size_t max_chunk = 0;
  /// Per-slice probability (in 2^-32 units... practically: parts per
  /// million) of sleeping delay_ms before forwarding the slice.
  std::uint32_t delay_ppm = 0;
  std::chrono::milliseconds delay_ms{0};
  /// Per-slice probability (ppm) of resetting the connection (RST both
  /// ways) instead of forwarding the slice.
  std::uint32_t reset_ppm = 0;

  // One-shot byte-offset faults; 0 = disabled. Offsets count bytes of the
  // given direction across all connections for the proxy's lifetime.
  /// Reset (RST) the connection once this many client->server bytes have
  /// been forwarded; the byte at the boundary is never delivered.
  std::uint64_t reset_after_client_bytes = 0;
  /// XOR-flip the client->server byte at exactly this offset (1-based: the
  /// Nth byte is corrupted) and deliver it.
  std::uint64_t corrupt_client_byte = 0;
  /// Stop draining the server once this many server->client bytes have
  /// been forwarded, for stall_ms. With the server's send buffer full its
  /// send_all blocks — long enough stalls trip its send timeout.
  std::uint64_t stall_after_server_bytes = 0;
  std::chrono::milliseconds stall_ms{0};
  /// Clamp SO_RCVBUF on the upstream (server-facing) socket; 0 = OS
  /// default. Stall tests set this small so the server's send path blocks
  /// against the stall instead of parking megabytes in autotuned kernel
  /// buffers.
  std::size_t upstream_rcvbuf = 0;
};

struct ChaosStats {
  std::uint64_t connections = 0;
  std::uint64_t client_bytes = 0;  ///< client->server bytes forwarded
  std::uint64_t server_bytes = 0;  ///< server->client bytes forwarded
  std::uint64_t resets = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t stalls = 0;
  std::uint64_t delays = 0;
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosConfig config);
  ~ChaosProxy();
  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// Bind + listen + spawn the accept thread. Throws NetError on bind
  /// failure.
  void start();
  /// Tear down: close the listener, reset every live link, join all
  /// threads. Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  ChaosStats stats() const;

 private:
  struct Link;

  void accept_loop();
  void relay(std::shared_ptr<Link> link, std::uint64_t conn, bool client_to_server);

  ChaosConfig config_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex links_mu_;
  std::vector<std::shared_ptr<Link>> links_;

  std::atomic<std::uint64_t> next_conn_{0};
  std::atomic<std::uint64_t> client_bytes_{0};
  std::atomic<std::uint64_t> server_bytes_{0};
  std::atomic<bool> reset_fired_{false};
  std::atomic<bool> corrupt_fired_{false};
  std::atomic<bool> stall_fired_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> delays_{0};
};

}  // namespace ncpm::net
