#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ncpm::net {

namespace {

[[noreturn]] void fail(NetErrc code, const std::string& what) {
  throw NetError(code, what + " (" + std::strerror(errno) + ")");
}

/// getaddrinfo wrapper; caller frees with freeaddrinfo.
addrinfo* resolve(const std::string& host, std::uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* result = nullptr;
  const auto service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(), &hints,
                               &result);
  if (rc != 0) {
    throw NetError(NetErrc::kConnectFailed,
                   "cannot resolve '" + host + "': " + ::gai_strerror(rc));
  }
  return result;
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail(NetErrc::kIo, "fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) fail(NetErrc::kIo, "fcntl(F_SETFL)");
}

}  // namespace

std::string_view net_errc_name(NetErrc code) {
  switch (code) {
    case NetErrc::kConnectFailed: return "connect-failed";
    case NetErrc::kTimeout: return "timeout";
    case NetErrc::kClosed: return "closed";
    case NetErrc::kProtocol: return "protocol";
    case NetErrc::kIo: return "io";
  }
  return "unknown";
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port,
                          std::chrono::milliseconds timeout) {
  addrinfo* addrs = resolve(host, port, /*passive=*/false);
  std::string last_error = "no addresses";
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    Socket sock(fd);
    // Connect with a deadline: non-blocking connect + poll for writability,
    // then read the outcome from SO_ERROR.
    if (timeout.count() > 0) set_fd_nonblocking(fd, true);
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc < 0 && errno == EINPROGRESS && timeout.count() > 0) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      if (rc == 0) {
        ::freeaddrinfo(addrs);
        throw NetError(NetErrc::kTimeout, "connect to " + host + " timed out");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (rc < 0 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
          so_error != 0) {
        last_error = std::strerror(so_error != 0 ? so_error : errno);
        continue;
      }
      rc = 0;
    }
    if (rc < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (timeout.count() > 0) set_fd_nonblocking(fd, false);
    ::freeaddrinfo(addrs);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
  }
  ::freeaddrinfo(addrs);
  throw NetError(NetErrc::kConnectFailed, "cannot connect to " + host + ": " + last_error);
}

Socket Socket::listen_on(const std::string& bind_address, std::uint16_t port, int backlog) {
  addrinfo* addrs = resolve(bind_address, port, /*passive=*/true);
  std::string last_error = "no addresses";
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    Socket sock(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 || ::listen(fd, backlog) < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(addrs);
    return sock;
  }
  ::freeaddrinfo(addrs);
  throw NetError(NetErrc::kConnectFailed,
                 "cannot listen on " + bind_address + ":" + std::to_string(port) + ": " +
                     last_error);
}

Socket Socket::accept_connection() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // EINVAL is what Linux reports once the listener has been shut down —
    // the server's stop signal, not an I/O accident.
    if (errno == EINVAL || errno == EBADF) {
      throw NetError(NetErrc::kClosed, "listening socket shut down");
    }
    fail(NetErrc::kIo, "accept");
  }
}

Socket Socket::try_accept() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Socket();
    // A connection that was reset between arrival and accept costs nothing.
    if (errno == ECONNABORTED) continue;
    if (errno == EINVAL || errno == EBADF) {
      throw NetError(NetErrc::kClosed, "listening socket shut down");
    }
    fail(NetErrc::kIo, "accept");
  }
}

void Socket::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

std::ptrdiff_t Socket::recv_some(void* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) {
      throw NetError(NetErrc::kClosed, "connection reset during recv");
    }
    fail(NetErrc::kIo, "recv");
  }
}

std::ptrdiff_t Socket::send_some(const void* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EPIPE || errno == ECONNRESET) {
      throw NetError(NetErrc::kClosed, "peer closed the connection during send");
    }
    fail(NetErrc::kIo, "send");
  }
}

std::uint16_t Socket::local_port() const {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail(NetErrc::kIo, "getsockname");
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw NetError(NetErrc::kIo, "unexpected socket family");
}

void Socket::set_recv_buffer(std::size_t bytes) {
  const int value = static_cast<int>(bytes);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &value, sizeof(value)) < 0) {
    fail(NetErrc::kIo, "setsockopt(SO_RCVBUF)");
  }
}

void Socket::set_recv_timeout(std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    fail(NetErrc::kIo, "setsockopt(SO_RCVTIMEO)");
  }
}

void Socket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished peer is an exception here, not a SIGPIPE.
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetError(NetErrc::kTimeout, "send timed out");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        throw NetError(NetErrc::kClosed, "peer closed the connection during send");
      }
      fail(NetErrc::kIo, "send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool Socket::recv_exact(void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw NetError(NetErrc::kClosed, "peer closed the connection mid-message");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetError(NetErrc::kTimeout, "recv timed out");
      }
      if (errno == ECONNRESET) {
        throw NetError(NetErrc::kClosed, "connection reset during recv");
      }
      fail(NetErrc::kIo, "recv");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::set_linger_reset() noexcept {
  if (fd_ < 0) return;
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ncpm::net
