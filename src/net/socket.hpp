#pragma once
// Thin RAII wrapper over a POSIX TCP socket — the only file in the tree
// that touches <sys/socket.h>. No external dependencies. Clients use the
// blocking calls (send_all, recv_exact); the server's event loops use the
// single-shot nonblocking ones (try_accept, recv_some, send_some).
//
// Every failure throws NetError carrying a typed code, so callers (the
// client library in particular) can distinguish "could not connect" from
// "peer closed" from "timed out" without parsing message strings.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ncpm::net {

enum class NetErrc : std::uint8_t {
  kConnectFailed = 0,  ///< resolve/connect/bind/listen failed
  kTimeout,            ///< blocking operation exceeded its deadline
  kClosed,             ///< peer closed the connection mid-message
  kProtocol,           ///< peer spoke bytes that are not ncpm-rpc v1
  kIo,                 ///< any other socket-level failure
};

std::string_view net_errc_name(NetErrc code);

class NetError : public std::runtime_error {
 public:
  NetError(NetErrc code, const std::string& what)
      : std::runtime_error("net: " + what), code_(code) {}
  NetErrc code() const noexcept { return code_; }

 private:
  NetErrc code_;
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Resolve `host` (name or numeric) and connect within `timeout`
  /// (zero = block indefinitely). Throws NetError(kConnectFailed/kTimeout).
  static Socket connect_to(const std::string& host, std::uint16_t port,
                           std::chrono::milliseconds timeout);
  /// Bind + listen on `bind_address`:`port` (port 0 = ephemeral; read the
  /// outcome back with local_port()).
  static Socket listen_on(const std::string& bind_address, std::uint16_t port, int backlog);

  /// Block for the next connection. Throws NetError(kClosed) once the
  /// listening socket has been shut down, NetError(kIo) on other failures.
  Socket accept_connection() const;
  /// Nonblocking accept for a listener registered with an event loop:
  /// returns an invalid Socket (valid() == false) when no connection is
  /// pending. Throws like accept_connection() otherwise.
  Socket try_accept() const;
  std::uint16_t local_port() const;

  /// Toggle O_NONBLOCK — the server drives every connection socket (and
  /// its listener) nonblocking; the client keeps blocking I/O.
  void set_nonblocking(bool on);

  /// Clamp the kernel receive buffer (SO_RCVBUF). Defeats receive-side
  /// autotuning — the chaos proxy uses it so a stalled relay makes the
  /// sender actually block instead of ballooning kernel buffers.
  void set_recv_buffer(std::size_t bytes);

  /// Zero cancels a previously set timeout.
  void set_recv_timeout(std::chrono::milliseconds timeout);

  /// Write all `size` bytes (retrying partial writes). Throws
  /// NetError(kClosed) when the peer has gone, kIo otherwise.
  void send_all(const void* data, std::size_t size);
  /// Read exactly `size` bytes. Returns false on a clean EOF before the
  /// first byte; throws NetError(kClosed) on EOF mid-read, kTimeout when a
  /// recv timeout is set and expires, kIo on other failures.
  bool recv_exact(void* data, std::size_t size);

  /// Single nonblocking recv: > 0 bytes read, 0 on peer EOF, -1 when the
  /// socket has nothing to read right now (EAGAIN). Throws NetError
  /// (kClosed on reset, kIo otherwise) — never on would-block.
  std::ptrdiff_t recv_some(void* data, std::size_t size);
  /// Single nonblocking send: > 0 bytes accepted by the kernel, -1 when
  /// the send buffer is full (EAGAIN). Throws NetError(kClosed) when the
  /// peer is gone, kIo otherwise.
  std::ptrdiff_t send_some(const void* data, std::size_t size);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Write side only: sends FIN while reads continue — the chaos proxy uses
  /// this to propagate one direction's EOF without killing the other.
  void shutdown_write() noexcept;
  /// shutdown(2) wakes threads blocked in accept/recv/send on this socket
  /// (closing the fd alone does not).
  void shutdown_both() noexcept;
  /// SO_LINGER {on, 0}: the eventual close() aborts the connection (RST to
  /// the peer) instead of the orderly FIN — the chaos proxy's "connection
  /// reset mid-frame" fault.
  void set_linger_reset() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

}  // namespace ncpm::net
