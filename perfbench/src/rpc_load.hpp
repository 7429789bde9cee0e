#pragma once
// Served-RPC driving: an `ncpm_cli serve` child process, and one loopback
// connection per client thread that runs closed- and open-loop segments
// with ncpm-rpc v1 frames.

#include <cstdint>
#include <deque>
#include <string>
#include <sys/types.h>
#include <vector>

#include "measure.hpp"
#include "net/client.hpp"
#include "workload.hpp"

namespace perfbench {

/// `ncpm_cli serve` with default flags in its own process. The destructor
/// stops it (SIGINT, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  /// Spawns `cli serve`, waits for its "listening on" line and parses the
  /// port and worker count from it. stderr goes to `log_path`. Throws
  /// std::runtime_error when the server does not come up.
  ServerProcess(const std::string& cli, const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  int workers() const { return workers_; }
  /// Stops and reaps the server; true when it exited on its own after SIGINT.
  bool stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  int workers_ = 0;
};

/// One pipelined connection. Request bytes are encoded once per slot up
/// front; only the request id is patched in per send.
class RpcConnection {
 public:
  RpcConnection(const std::string& host, std::uint16_t port, const Workload& workload,
                const std::vector<std::string>& frames, std::size_t sequence_offset,
                std::uint64_t trace_namespace);

  /// Runs one segment from `start_ns` until `start_ns + seconds`, then
  /// drains. A closed segment keeps `window` requests in flight; an open one
  /// sends at `rate_rps` (this connection's share), the first send at
  /// `start_ns + phase_ns`. Requests still unanswered `drain_ns` after the
  /// end count as failed.
  void run(const Segment& segment, std::uint16_t segment_index, std::uint64_t start_ns,
                    double rate_rps, std::uint64_t phase_ns, std::size_t window,
                    std::uint64_t drain_ns, Tracer& tracer);

  std::vector<Sample>& samples() { return samples_; }
  /// The first response body seen for each slot (empty when none arrived).
  const std::vector<std::string>& first_bodies() const { return first_body_; }

 private:
  void enqueue(std::uint16_t segment, std::uint64_t t_sched);
  void flush();
  void receive(Tracer& tracer);
  void handle(const std::uint8_t* body, std::size_t size, Tracer& tracer);

  ncpm::net::Client client_;
  const Workload& workload_;
  const std::vector<std::string>& frames_;
  std::size_t cursor_;
  std::uint64_t trace_namespace_;
  std::vector<Sample> samples_;
  std::vector<std::string> first_body_;
  std::string out_;
  std::size_t out_pos_ = 0;
  /// (sample index, end offset in out_) of frames not yet fully sent.
  std::deque<std::pair<std::size_t, std::size_t>> unsent_;
  std::vector<std::uint8_t> in_;
  std::size_t in_pos_ = 0;
  std::size_t in_flight_ = 0;
  bool broken_ = false;  ///< once set, every request still in flight has failed
};

/// Hash of a response body's status and payload (not its id or timings):
/// equal for equal outputs of one slot.
std::uint64_t response_hash(const std::uint8_t* body, std::size_t size);

/// Encoded request frame (request id 0) for every slot of the workload.
std::vector<std::string> encode_frames(const Workload& workload);

}  // namespace perfbench
