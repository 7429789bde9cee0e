#pragma once
// Epoll reactor: the event-loop half of the server's epoll core.
//
// An EventLoop is one thread around one epoll instance, with two side
// channels: an eventfd that other threads ring via post() (this is how
// engine completion callbacks re-enter the loop safely), and a hashed
// timing wheel for send-stall and idle timers. Everything else — fd
// registration, interest changes, timer arming — is loop-thread-only by
// contract, which is what lets sessions run without a single lock.
//
// The detail::EpollCore that owns a pool of these is declared in
// net/server_core.hpp and implemented in reactor.cpp.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/timer_wheel.hpp"

namespace ncpm::net {

/// Something an EventLoop can dispatch fd readiness to (a Session, or the
/// core's listener). `events` is the raw epoll bitmask.
class FdHandler {
 public:
  virtual ~FdHandler() = default;
  virtual void on_io(std::uint32_t events) = 0;
};

class EventLoop {
 public:
  using Task = std::function<void()>;
  using TimerId = TimerWheel::TimerId;

  /// Creates the epoll instance and the wakeup eventfd (throws
  /// NetError(kIo) when the kernel refuses). The thread starts in start().
  EventLoop();
  /// Joins the thread if still running, then closes the fds.
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void start();
  /// Ask the loop to exit after its current iteration and join it.
  /// Idempotent; safe on a never-started loop.
  void stop();

  /// Thread-safe: queue `task` and ring the eventfd. Tasks run on the loop
  /// thread in post order. Tasks posted after stop() are discarded when the
  /// loop is destroyed (they never run).
  void post(Task task);
  bool on_loop_thread() const noexcept;

  // --- loop-thread-only from here down ---

  void add_fd(int fd, std::uint32_t events, FdHandler* handler);
  void modify_fd(int fd, std::uint32_t events);
  /// Deregisters from epoll and forgets the handler; pending events for
  /// this fd in the current batch are dropped.
  void remove_fd(int fd);

  /// Arm a one-shot timer; `on_fire` runs on the loop thread. Returns a
  /// nonzero id for cancel_timer().
  TimerId arm_timer(std::chrono::milliseconds delay, std::function<void()> on_fire);
  /// Cancelling an already-fired or unknown id is a no-op.
  void cancel_timer(TimerId id);

  /// Hold `sock` open until the current dispatch batch finishes, then
  /// close it. Deferring the close keeps the kernel from recycling the fd
  /// number mid-batch, where a stale readiness event for the old fd could
  /// be misdelivered to its successor.
  void defer_close(Socket sock);

 private:
  void run();
  void drain_wakeup();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  bool stop_ = false;  ///< loop thread only; set via a posted task

  std::mutex tasks_mu_;
  std::deque<Task> tasks_;  ///< guarded by tasks_mu_

  // Loop-thread-only state.
  std::unordered_map<int, FdHandler*> handlers_;
  TimerWheel wheel_;
  std::unordered_map<TimerId, std::function<void()>> timer_callbacks_;
  std::vector<Socket> pending_close_;
};

}  // namespace ncpm::net
