#include "rpc_load.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace perfbench {

namespace {

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// Offsets inside a frame (docs/ncpm-rpc-v1.md): u32 length prefix, then the
// body; request body = u8 type, u64 id, ...; response body = u8 type,
// u64 id, u8 mode, u8 status, u64 queue_ns, u64 solve_ns, payload.
constexpr std::size_t kRequestIdOffset = 4 + 1;
constexpr std::size_t kStatusOffset = 1 + 8 + 1;
constexpr std::size_t kQueueOffset = kStatusOffset + 1;
constexpr std::size_t kSolveOffset = kQueueOffset + 8;

}  // namespace

std::uint64_t response_hash(const std::uint8_t* body, std::size_t size) {
  const auto head = ncpm::net::kResponseHeadSize;
  return hash_bytes(body + head, size - head) + body[kStatusOffset];
}

ServerProcess::ServerProcess(const std::string& cli, const std::string& log_path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::string serve = "serve";
  char* argv[] = {const_cast<char*>(cli.c_str()), serve.data(), nullptr};
  const int rc = ::posix_spawn(&pid_, cli.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  stdout_fd_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stdout_fd_);
    throw std::runtime_error("cannot spawn " + cli + ": " + std::strerror(rc));
  }
  // "ncpm-rpc v1 listening on HOST:PORT (CORE core, W worker(s) x L lane(s))"
  std::string line;
  const auto deadline = now_ns() + 30'000'000'000ULL;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const auto left = deadline > now_ns() ? (deadline - now_ns()) / 1'000'000 : 0;
    if (left == 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const auto n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  const auto colon = line.find(':', line.find("listening on"));
  const auto paren = line.find('(');
  unsigned port = 0;
  int lanes = 0;
  if (colon == std::string::npos || paren == std::string::npos ||
      std::sscanf(line.c_str() + colon + 1, "%u", &port) != 1 ||
      std::sscanf(line.c_str() + line.find(',', paren) + 1, " %d worker(s) x %d", &workers_,
                  &lanes) != 2) {
    stop();
    throw std::runtime_error("server did not report a listening port: '" + line + "'");
  }
  port_ = static_cast<std::uint16_t>(port);
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGINT);
  bool clean = false;
  int status = 0;
  for (int i = 0; i < 200; ++i) {  // up to 10 s for the drain
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return clean;
}

std::vector<std::string> encode_frames(const Workload& w) {
  std::vector<std::string> frames;
  frames.reserve(w.slots.size());
  for (const auto& slot : w.slots) {
    if (slot.mode == ncpm::engine::Mode::kNextStable) {  // not served over rpc
      frames.emplace_back();
      continue;
    }
    ncpm::net::RequestHead head;
    head.mode_raw = static_cast<std::uint8_t>(slot.mode);
    frames.push_back(ncpm::net::encode_request_frame(head, w.instances[slot.instance]));
  }
  return frames;
}

RpcConnection::RpcConnection(const std::string& host, std::uint16_t port, const Workload& workload,
                             const std::vector<std::string>& frames, std::size_t sequence_offset,
                             std::uint64_t trace_namespace)
    : client_(ncpm::net::Client::connect(host, port)),
      workload_(workload),
      frames_(frames),
      cursor_(sequence_offset),
      trace_namespace_(trace_namespace),
      first_body_(workload.slots.size()) {
  client_.socket().set_nonblocking(true);
}

void RpcConnection::enqueue(std::uint16_t segment, std::uint64_t t_sched) {
  Sample s;
  s.slot = workload_.sequence[cursor_++ % workload_.sequence.size()];
  s.segment = segment;
  s.t_sched = t_sched;
  const auto& frame = frames_[s.slot];
  s.req_bytes = static_cast<std::uint32_t>(frame.size());
  samples_.push_back(s);
  const auto at = out_.size();
  out_ += frame;
  store_u64(out_.data() + at + kRequestIdOffset, samples_.size());  // id = index + 1
  unsent_.emplace_back(samples_.size() - 1, out_.size());
  ++in_flight_;
}

void RpcConnection::flush() {
  while (out_pos_ < out_.size()) {
    const auto n = client_.socket().send_some(out_.data() + out_pos_, out_.size() - out_pos_);
    if (n < 0) break;
    out_pos_ += static_cast<std::size_t>(n);
  }
  const auto t = now_ns();
  std::size_t done = 0;
  while (done < unsent_.size() && unsent_[done].second <= out_pos_) {
    samples_[unsent_[done].first].t_sent = t;
    ++done;
  }
  unsent_.erase(unsent_.begin(), unsent_.begin() + static_cast<std::ptrdiff_t>(done));
  if (out_pos_ == out_.size()) {  // everything sent, so unsent_ is empty too
    out_.clear();
    out_pos_ = 0;
  }
}

void RpcConnection::receive(Tracer& tracer) {
  for (;;) {
    if (in_pos_ > 0) {  // drop the frames already handled
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
      in_pos_ = 0;
    }
    const auto old = in_.size();
    in_.resize(old + 65536);
    const auto n = client_.socket().recv_some(in_.data() + old, 65536);
    in_.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n == 0) throw ncpm::net::NetError(ncpm::net::NetErrc::kClosed, "server closed");
    if (n < 0) break;
    while (in_.size() - in_pos_ >= 4) {
      const auto* p = in_.data() + in_pos_;
      const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24);
      if (in_.size() - in_pos_ < 4 + static_cast<std::size_t>(len)) break;
      handle(p + 4, len, tracer);
      in_pos_ += 4 + static_cast<std::size_t>(len);
    }
  }
}

void RpcConnection::handle(const std::uint8_t* body, std::size_t size, Tracer& tracer) {
  const auto t = now_ns();
  if (size < ncpm::net::kResponseHeadSize ||
      body[0] != static_cast<std::uint8_t>(ncpm::net::FrameType::kResponse)) {
    throw ncpm::net::NetError(ncpm::net::NetErrc::kProtocol, "unexpected frame");
  }
  const auto id = load_u64(body + 1);
  if (id == 0 || id > samples_.size()) {
    throw ncpm::net::NetError(ncpm::net::NetErrc::kProtocol, "unknown request id");
  }
  auto& s = samples_[id - 1];
  if (s.t_done != 0) return;  // a reply after its drain timeout: already failed
  s.t_done = t;
  if (s.t_sent == 0) s.t_sent = t;  // reply raced the send bookkeeping
  const auto status = body[kStatusOffset];
  s.queue_ns = load_u64(body + kQueueOffset);
  s.solve_ns = load_u64(body + kSolveOffset);
  s.resp_bytes = static_cast<std::uint32_t>(size + 4);
  s.outcome = status == static_cast<std::uint8_t>(ncpm::net::RpcStatus::kOk)           ? Outcome::kOk
              : status == static_cast<std::uint8_t>(ncpm::net::RpcStatus::kNoSolution) ? Outcome::kNoSolution
                                                                                       : Outcome::kFailed;
  s.hash = response_hash(body, size);
  auto& first = first_body_[s.slot];
  if (first.empty()) first.assign(reinterpret_cast<const char*>(body), size);
  --in_flight_;
  if (tracer.on) {
    const auto request = trace_namespace_ | id;
    const auto root = tracer.span(request, 0, "client.request", s.t_sched, t);
    tracer.span(request, root, "client.send", s.t_sched, s.t_sent);
    tracer.span(request, root, "client.wait", s.t_sent, t);
  }
}

void RpcConnection::run(const Segment& segment, std::uint16_t segment_index,
                                 std::uint64_t start_ns, double rate_rps, std::uint64_t phase_ns,
                                 std::size_t window, std::uint64_t drain_ns, Tracer& tracer) {
  const auto end = start_ns + static_cast<std::uint64_t>(segment.seconds * 1e9);
  const bool open = segment.kind == Segment::Kind::kOpen;
  const auto interval = open ? static_cast<std::uint64_t>(1e9 / rate_rps) : 0;
  auto due = start_ns + phase_ns;
  tracer.on = segment.traced;
  while (!broken_) {
    auto now = now_ns();
    try {
      if (open) {
        while (due <= now && due < end) {
          enqueue(segment_index, due);
          due += interval;
        }
      } else {
        while (now < end && in_flight_ < window) {
          enqueue(segment_index, now);
        }
      }
      flush();
      if (now >= end && in_flight_ == 0) break;
      if (now >= end + drain_ns) break;
      std::uint64_t wait = 1'000'000;  // 1 ms cap keeps the end check prompt
      if (open && due < end) wait = due > now ? std::min(wait, due - now) : 0;
      if (now < end && !open) wait = std::min(wait, end - now);
      pollfd pfd{client_.socket().fd(), static_cast<short>(POLLIN | (out_pos_ < out_.size() ? POLLOUT : 0)), 0};
      timespec ts{static_cast<time_t>(wait / 1'000'000'000ULL),
                  static_cast<long>(wait % 1'000'000'000ULL)};
      if (::ppoll(&pfd, 1, &ts, nullptr) > 0 && (pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        receive(tracer);
      }
    } catch (const ncpm::net::NetError&) {
      broken_ = true;
    }
  }
  // Whatever is still unanswered failed (timeout or broken connection).
  for (auto& s : samples_) {
    if (s.t_done == 0 && s.outcome == Outcome::kFailed && s.segment == segment_index) {
      s.t_done = s.t_sent = now_ns();
    }
  }
  in_flight_ = 0;
  tracer.on = false;
}

}  // namespace perfbench
