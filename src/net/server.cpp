#include "net/server.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/metrics_http.hpp"
#include "net/server_core.hpp"
#include "net/socket.hpp"
#include "pram/simd.hpp"

namespace ncpm::net {

namespace detail {

ServerObs::ServerObs(obs::Registry& registry_in, obs::Log& log_in, obs::Log& slow_log_in,
                     obs::TraceRing& traces_in)
    : registry(registry_in),
      log(log_in),
      slow_log(slow_log_in),
      traces(traces_in),
      connections_accepted(registry.counter("ncpm_server_connections_accepted_total",
                                            "Connections accepted since start")),
      connections_active(
          registry.gauge("ncpm_server_connections_active", "Connections currently open")),
      responses_sent(registry.counter("ncpm_server_responses_sent_total",
                                      "Response frames fully written")),
      frames_received(registry.counter("ncpm_server_frames_received_total",
                                       "Request frames read off the wire")),
      malformed_frames(registry.counter("ncpm_server_malformed_frames_total",
                                        "Error responses that never reached the engine")),
      overloaded_shed(registry.counter("ncpm_server_overloaded_shed_total",
                                       "Requests shed kOverloaded by admission control")),
      deadline_shed(registry.counter("ncpm_server_deadline_shed_total",
                                     "Requests already expired before dispatch")),
      pings_answered(registry.counter("ncpm_server_pings_answered_total",
                                      "Keepalive pings answered inline")),
      hello_timeouts(registry.counter("ncpm_server_hello_timeouts_total",
                                      "Connections reaped before completing the hello")),
      stats_frames_answered(registry.counter("ncpm_server_stats_frames_total",
                                             "Stats probes answered inline")),
      slow_requests(registry.counter("ncpm_server_slow_requests_total",
                                     "Solves at or over slow_request_ns, logged")) {}

namespace {

std::uint64_t steady_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count());
}

/// FNV-1a 64 over the request's instance payload — a stable fingerprint
/// tying a slow-request log line and its trace span to the exact bytes that
/// were slow, so an operator can replay the instance offline.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// 16 lowercase hex chars, same rendering as the trace span's JSON digest.
std::string hex64(std::uint64_t v) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) out[i] = kHex[(v >> (60 - 4 * i)) & 0xf];
  return out;
}

}  // namespace

void dispatch_request(engine::Engine& engine, ServerObs& obs, const ServerConfig& config,
                      const std::vector<std::uint8_t>& body,
                      std::chrono::steady_clock::time_point receipt, std::uint64_t conn_id,
                      std::chrono::steady_clock::time_point accepted,
                      std::function<void(std::string)> deliver) {
  // Sampling decision per request, taken before the outcome is known so a
  // shed or malformed request is as likely to be traced as a served one.
  const bool sampled = obs.traces.should_sample();
  const std::uint64_t accept_ns = steady_ns(accepted);
  const std::uint64_t frame_read_ns = steady_ns(receipt);

  // Span for requests answered right here (no solve window: dispatch and
  // response collapse to "now").
  const auto commit_inline_span = [&](std::uint64_t request_id, std::uint8_t mode_raw,
                                      RpcStatus status) {
    if (!sampled) return;
    obs::TraceSpan span;
    span.request_id = request_id;
    span.conn_id = conn_id;
    span.mode = mode_raw;
    span.status = static_cast<std::uint8_t>(status);
    span.accept_ns = accept_ns;
    span.frame_read_ns = frame_read_ns;
    const std::uint64_t now = steady_ns(std::chrono::steady_clock::now());
    span.dispatch_ns = now;
    span.response_ns = now;
    obs.traces.commit(span);
  };

  RequestHead head;
  try {
    head = decode_request_head(body.data(), body.size());
  } catch (const std::exception& e) {
    obs.malformed_frames.add(1);
    if (obs.log.enabled()) {
      obs.log.event("malformed_frame", {{"conn_id", conn_id},
                                        {"request_id", std::uint64_t{0}},
                                        {"error", e.what()}});
    }
    commit_inline_span(0, kModeUnknown, RpcStatus::kMalformedFrame);
    deliver(encode_response_frame(
        make_error_response(0, kModeUnknown, RpcStatus::kMalformedFrame, e.what())));
    return;
  }

  if (head.mode_raw >= engine::kNumModes ||
      static_cast<engine::Mode>(head.mode_raw) == engine::Mode::kNextStable) {
    obs.malformed_frames.add(1);
    if (obs.log.enabled()) {
      obs.log.event("malformed_frame", {{"conn_id", conn_id},
                                        {"request_id", head.request_id},
                                        {"error", "unsupported mode tag"}});
    }
    commit_inline_span(head.request_id, head.mode_raw, RpcStatus::kUnsupportedMode);
    deliver(encode_response_frame(make_error_response(
        head.request_id, head.mode_raw, RpcStatus::kUnsupportedMode,
        "mode tag " + std::to_string(head.mode_raw) + " is not served over ncpm-rpc v1")));
    return;
  }

  // Shedding gates, after the head (we need the request id to answer) but
  // before the instance payload decodes — an overloaded server must not pay
  // instance validation for work it is about to refuse.
  if (head.deadline_ns > 0 &&
      std::chrono::steady_clock::now() >= receipt + std::chrono::nanoseconds(head.deadline_ns)) {
    obs.deadline_shed.add(1);
    if (obs.log.enabled()) {
      obs.log.event("shed_deadline",
                    {{"conn_id", conn_id}, {"request_id", head.request_id}});
    }
    commit_inline_span(head.request_id, head.mode_raw, RpcStatus::kDeadlineExpired);
    deliver(encode_response_frame(
        make_error_response(head.request_id, head.mode_raw, RpcStatus::kDeadlineExpired,
                            "deadline expired before dispatch")));
    return;
  }
  if (config.max_in_flight_global > 0 && engine.outstanding() >= config.max_in_flight_global) {
    obs.overloaded_shed.add(1);
    if (obs.log.enabled()) {
      obs.log.event("shed_overload", {{"conn_id", conn_id}, {"request_id", head.request_id}});
    }
    commit_inline_span(head.request_id, head.mode_raw, RpcStatus::kOverloaded);
    deliver(encode_response_frame(
        make_error_response(head.request_id, head.mode_raw, RpcStatus::kOverloaded,
                            "server at its global in-flight cap; back off and retry")));
    return;
  }

  // Fingerprint the instance payload when anyone downstream will want it (a
  // sampled span or a possible slow-request line); unsampled requests on a
  // server with slow capture off skip the hash entirely.
  const bool slow_capture = config.slow_request_ns > 0;
  const auto payload_bytes = static_cast<std::uint32_t>(
      body.size() > kRequestHeadSize ? body.size() - kRequestHeadSize : 0);
  const std::uint64_t instance_digest =
      (sampled || slow_capture) && payload_bytes > 0
          ? fnv1a64(body.data() + kRequestHeadSize, payload_bytes)
          : 0;

  std::optional<core::Instance> instance;
  const std::uint64_t decode_begin_ns = steady_ns(std::chrono::steady_clock::now());
  try {
    instance = decode_request_instance(body.data(), body.size());
  } catch (const std::exception& e) {
    // A malformed payload inside a well-delimited frame costs exactly one
    // error response; the connection (and its other requests) live on.
    obs.malformed_frames.add(1);
    if (obs.log.enabled()) {
      obs.log.event("malformed_frame", {{"conn_id", conn_id},
                                        {"request_id", head.request_id},
                                        {"error", e.what()}});
    }
    commit_inline_span(head.request_id, head.mode_raw, RpcStatus::kMalformedFrame);
    deliver(encode_response_frame(make_error_response(head.request_id, head.mode_raw,
                                                      RpcStatus::kMalformedFrame, e.what())));
    return;
  }

  auto request = engine::Request::popular(static_cast<engine::Mode>(head.mode_raw),
                                          std::move(*instance));
  // Wire-decode time is charged to the kDecode phase bucket: it happened
  // here, before the engine saw the request, but it is solve work a
  // phase-breakdown reader expects to see accounted.
  request.decode_ns = steady_ns(std::chrono::steady_clock::now()) - decode_begin_ns;
  if (head.deadline_ns > 0) {
    request.deadline = receipt + std::chrono::nanoseconds(head.deadline_ns);
  }

  const auto request_id = head.request_id;
  const auto mode_raw = head.mode_raw;
  const std::uint64_t slow_ns = config.slow_request_ns;
  detail::ServerObs* obs_ptr = &obs;  // outlives every engine callback (facade member)
  auto on_complete = [deliver, request_id, mode_raw, sampled, obs_ptr, conn_id, accept_ns,
                      frame_read_ns, instance_digest, payload_bytes,
                      slow_ns](engine::Result result) {
    // The engine records no per-request milestones; the span is
    // reconstructed here from the result's own timings: the callback runs
    // at (approximately) solve end, so solve_start = end - solve_time and
    // dispatch = solve_start - queue_latency.
    const auto solve_time_ns = static_cast<std::uint64_t>(result.solve_time.count());
    const auto queue_ns = static_cast<std::uint64_t>(result.queue_latency.count());
    obs::TraceSpan span;
    if (sampled) {
      const std::uint64_t end_ns = steady_ns(std::chrono::steady_clock::now());
      span.request_id = request_id;
      span.conn_id = conn_id;
      span.mode = mode_raw;
      span.status = static_cast<std::uint8_t>(to_rpc_status(result.status));
      span.accept_ns = accept_ns;
      span.frame_read_ns = frame_read_ns;
      span.solve_end_ns = end_ns;
      span.solve_start_ns = end_ns - solve_time_ns;
      span.dispatch_ns = span.solve_start_ns - queue_ns;
      span.instance_digest = instance_digest;
      span.payload_bytes = payload_bytes;
      span.phase_ns = result.phase_ns;
    }
    // Slow-request capture: one JSON line per served request whose solve
    // reached the threshold — enough to replay the instance (digest) and see
    // where the time went (phase breakdown) without any sampling luck.
    if (slow_ns > 0 && solve_time_ns >= slow_ns) {
      obs_ptr->slow_requests.add(1);
      if (obs_ptr->slow_log.enabled()) {
        const std::string digest_hex = hex64(instance_digest);
        const auto phase = [&result](obs::Phase p) {
          return result.phase_ns[static_cast<std::size_t>(p)];
        };
        obs_ptr->slow_log.event(
            "slow_request",
            {{"conn_id", conn_id},
             {"request_id", request_id},
             {"mode", engine::mode_name(static_cast<engine::Mode>(mode_raw))},
             {"status", engine::status_name(result.status)},
             {"instance_digest", std::string_view(digest_hex)},
             {"payload_bytes", std::uint64_t{payload_bytes}},
             {"queue_ns", queue_ns},
             {"solve_ns", solve_time_ns},
             {"simd", pram::simd_tier_name(pram::active_simd_tier())},
             {"decode_ns", phase(obs::Phase::kDecode)},
             {"reduced_graph_ns", phase(obs::Phase::kReducedGraph)},
             {"two_regular_ns", phase(obs::Phase::kTwoRegular)},
             {"euler_split_ns", phase(obs::Phase::kEulerSplit)},
             {"list_rank_ns", phase(obs::Phase::kListRank)},
             {"window_min_ns", phase(obs::Phase::kWindowMin)},
             {"compaction_ns", phase(obs::Phase::kCompaction)},
             {"gf2_rank_ns", phase(obs::Phase::kGf2Rank)},
             {"extract_ns", phase(obs::Phase::kExtract)},
             {"verify_ns", phase(obs::Phase::kVerify)}});
      }
    }
    std::string frame =
        encode_response_frame(make_response(request_id, mode_raw, std::move(result)));
    if (sampled) {
      span.response_ns = steady_ns(std::chrono::steady_clock::now());
      obs_ptr->traces.commit(span);
    }
    deliver(std::move(frame));
  };

  try {
    engine.submit(std::move(request), std::move(on_complete));
  } catch (const std::exception& e) {
    // Engine already shut down underneath us (external shutdown).
    commit_inline_span(request_id, mode_raw, RpcStatus::kRejected);
    deliver(encode_response_frame(
        make_error_response(request_id, mode_raw, RpcStatus::kRejected, e.what())));
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

namespace {

/// Spans the trace ring retains; older ones are overwritten.
constexpr std::size_t kTraceRingCapacity = 256;

/// The engine registers its own metrics into whatever registry its config
/// points at; the server points it at the server's.
engine::EngineConfig with_registry(engine::EngineConfig ec, obs::Registry* registry) {
  ec.registry = registry;
  return ec;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      registry_(std::make_unique<obs::Registry>()),
      log_(std::make_unique<obs::Log>()),
      slow_log_(std::make_unique<obs::Log>()),
      traces_(std::make_unique<obs::TraceRing>(kTraceRingCapacity, config_.trace_sample_n)),
      engine_(with_registry(config_.engine, registry_.get())),
      obs_(std::make_unique<detail::ServerObs>(*registry_, *log_, *slow_log_, *traces_)) {
  if (config_.max_in_flight_per_connection < 1) config_.max_in_flight_per_connection = 1;
  if (config_.log_json) log_->enable(config_.log_sink);
  // Slow-request capture rides its own log stream, on whenever the
  // threshold is set — production keeps lifecycle logging off while still
  // recording outliers.
  if (config_.slow_request_ns > 0) slow_log_->enable(config_.slow_log_sink);
}

Server::~Server() { stop(); }

std::uint16_t Server::port() const noexcept { return core_ ? core_->port() : 0; }

std::uint16_t Server::metrics_port() const noexcept { return metrics_ ? metrics_->port() : 0; }

obs::Registry& Server::registry() noexcept { return *registry_; }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (stopping_.load(std::memory_order_acquire)) {
    // The engine behind a stopped server is drained for good.
    throw NetError(NetErrc::kConnectFailed, "server is single-use; cannot restart after stop()");
  }
  core_ = std::make_unique<detail::EpollCore>(config_, engine_, *obs_);
  core_->start();
  if (config_.metrics_port.has_value()) {
    try {
      // Readiness: serving (not draining) with admission headroom. Checked
      // per probe on the metrics loop thread — two atomic loads.
      auto ready_fn = [this] {
        if (stopping_.load(std::memory_order_acquire)) return false;
        return config_.max_in_flight_global == 0 ||
               engine_.outstanding() < config_.max_in_flight_global;
      };
      metrics_ = std::make_unique<MetricsHttpServer>(config_.bind_address, *config_.metrics_port,
                                                     *registry_, std::move(ready_fn));
      metrics_->start();
    } catch (...) {
      // The rpc port is already live; unwind it so a metrics bind failure
      // leaves nothing half-started.
      core_->stop();
      core_.reset();
      metrics_.reset();
      throw;
    }
  }
  if (log_->enabled()) {
    log_->event("server_start",
                {{"port", std::uint64_t{port()}},
                 {"core", "epoll"},
                 {"metrics_port", std::uint64_t{metrics_port()}}});
  }
  running_.store(true, std::memory_order_release);
}

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (log_->enabled()) {
    log_->event("drain_begin", {{"uptime_ns", registry_->uptime_ns()}});
  }
  core_->stop();
  // Nothing can submit anymore; drain whatever the engine still holds. The
  // metrics endpoint outlives the drain on purpose: /healthz stays 200 and
  // /readyz reports 503 (stopping_ is set) for the whole drain window, so
  // an orchestrator watching the probes sees "alive but not ready" instead
  // of a vanished port.
  engine_.shutdown();
  if (metrics_) metrics_->stop();
  if (log_->enabled()) {
    log_->event("drain_end", {{"uptime_ns", registry_->uptime_ns()},
                              {"responses_sent", obs_->responses_sent.value()},
                              {"overloaded_shed", obs_->overloaded_shed.value()},
                              {"deadline_shed", obs_->deadline_shed.value()}});
  }
  running_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = obs_->connections_accepted.value();
  s.connections_active = static_cast<std::uint64_t>(obs_->connections_active.value());
  // Outcomes before submissions, as in Registry::snapshot.
  s.responses_sent = obs_->responses_sent.value();
  s.frames_received = obs_->frames_received.value();
  s.malformed_frames = obs_->malformed_frames.value();
  s.overloaded_shed = obs_->overloaded_shed.value();
  s.deadline_shed = obs_->deadline_shed.value();
  s.pings_answered = obs_->pings_answered.value();
  s.hello_timeouts = obs_->hello_timeouts.value();
  s.stats_frames_answered = obs_->stats_frames_answered.value();
  s.slow_requests = obs_->slow_requests.value();
  return s;
}

}  // namespace ncpm::net
