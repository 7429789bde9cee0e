// Observability integration over real sockets: the stats frame answers
// inline with a coherent registry snapshot, concurrent scrapes during a
// pipelined submit storm only ever see monotone counters and a consistent
// quiesce, trace spans are sampled and retrievable, the optional HTTP
// /metrics endpoint speaks Prometheus text, and --log-json lifecycle events
// reach the sink.

#include "net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/stats_frame.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ncpm::net {
namespace {

using engine::Mode;

core::Instance small_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 16;
  cfg.num_posts = 40;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Sum of a counter across every label set (mode-split engine counters
/// collapse to a total this way).
std::uint64_t counter_sum(const obs::Snapshot& snap, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

/// One HTTP/1.0 exchange against the metrics listener; empty string when
/// the connection fails (the listener is gone).
std::string http_exchange(std::uint16_t port, const std::string& method,
                          const std::string& target) {
  try {
    Socket sock = Socket::connect_to("127.0.0.1", port, std::chrono::seconds(5));
    const std::string req = method + " " + target + " HTTP/1.0\r\n\r\n";
    sock.send_all(req.data(), req.size());
    std::string response;
    char buf[4096];
    while (true) {
      const auto n = sock.recv_some(buf, sizeof(buf));
      if (n == 0) break;  // blocking socket: only EOF stops the read
      if (n > 0) response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  } catch (const std::exception&) {
    return {};
  }
}

std::int64_t gauge_value(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  ADD_FAILURE() << "gauge " << name << " missing from snapshot";
  return 0;
}

/// Two workers, so pipelined storms actually overlap solves.
ServerConfig make_config() {
  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{2, 1};
  return cfg;
}

TEST(ServerObsLoopback, StatsFrameReflectsServedTraffic) {
  Server server{make_config()};
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  constexpr std::uint64_t kCalls = 6;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const auto resp = client.call(Mode::kSolve, small_instance(i));
    ASSERT_EQ(resp.status, RpcStatus::kOk);
  }
  client.ping();

  const StatsReply reply = client.stats();
  EXPECT_EQ(reply.version, kStatsSnapshotVersion);
  EXPECT_GT(reply.snapshot.uptime_ns, 0u);

  const auto& snap = reply.snapshot;
  EXPECT_EQ(counter_sum(snap, "ncpm_server_connections_accepted_total"), 1u);
  EXPECT_EQ(gauge_value(snap, "ncpm_server_connections_active"), 1);
  EXPECT_EQ(counter_sum(snap, "ncpm_server_frames_received_total"), kCalls);
  EXPECT_EQ(counter_sum(snap, "ncpm_server_responses_sent_total"), kCalls);
  EXPECT_EQ(counter_sum(snap, "ncpm_server_pings_answered_total"), 1u);
  // The probe that produced this snapshot counted itself before snapshotting.
  EXPECT_EQ(counter_sum(snap, "ncpm_server_stats_frames_total"), 1u);
  EXPECT_EQ(counter_sum(snap, "ncpm_server_malformed_frames_total"), 0u);

  // Engine series ride the same registry, split by mode label.
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"), kCalls);
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_completed_total"), kCalls);
  bool found_solve_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "ncpm_engine_solve_ns" &&
        h.labels == obs::Labels{{"mode", "solve"}}) {
      found_solve_hist = true;
      EXPECT_EQ(h.count, kCalls);
      EXPECT_GT(h.sum, 0u);
      EXPECT_GT(h.quantile(0.99), 0.0);
    }
  }
  EXPECT_TRUE(found_solve_hist);
  EXPECT_EQ(gauge_value(snap, "ncpm_engine_workers"), 2);
  EXPECT_EQ(gauge_value(snap, "ncpm_engine_outstanding"), 0);

  server.stop();
}

TEST(ServerObsLoopback, ConcurrentScrapesStayMonotoneThroughASubmitStorm) {
  ServerConfig cfg = make_config();
  Server server(cfg);
  server.start();

  constexpr int kClients = 3;
  constexpr std::size_t kRequestsPerClient = 40;
  const auto inst = small_instance(7);

  std::atomic<bool> storm_done{false};
  std::vector<std::string> failures(kClients + 1);

  // Scraper: its own connection, back-to-back stats probes for the whole
  // storm. Every counter in every successive snapshot must be monotone.
  std::thread scraper([&] {
    try {
      auto client = Client::connect("127.0.0.1", server.port());
      std::map<std::string, std::uint64_t> last;
      std::uint64_t last_uptime = 0;
      while (!storm_done.load(std::memory_order_acquire)) {
        const StatsReply reply = client.stats();
        ASSERT_GE(reply.snapshot.uptime_ns, last_uptime);
        last_uptime = reply.snapshot.uptime_ns;
        for (const auto& c : reply.snapshot.counters) {
          std::string key = c.name;
          for (const auto& [k, v] : c.labels) key += "|" + k + "=" + v;
          auto [it, inserted] = last.try_emplace(key, c.value);
          if (!inserted) {
            ASSERT_GE(c.value, it->second) << key << " went backwards";
            it->second = c.value;
          }
        }
        // Cross-counter sanity on every single scrape: the engine never
        // completes more than was submitted, the server never answers more
        // than it read.
        const auto& snap = reply.snapshot;
        ASSERT_GE(counter_sum(snap, "ncpm_engine_submitted_total"),
                  counter_sum(snap, "ncpm_engine_completed_total"));
        ASSERT_GE(counter_sum(snap, "ncpm_server_frames_received_total"),
                  counter_sum(snap, "ncpm_server_responses_sent_total"));
      }
    } catch (const std::exception& e) {
      failures[kClients] = e.what();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        std::vector<RpcCall> calls(kRequestsPerClient, RpcCall{Mode::kSolve, inst, 0});
        auto client = Client::connect("127.0.0.1", server.port());
        const auto responses = client.call_batch(calls);
        for (const auto& resp : responses) ASSERT_EQ(resp.status, RpcStatus::kOk);
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();

  // Quiesce: all client traffic answered. Scrape until responses_sent
  // settles (the writer increments it just *after* the bytes leave, so the
  // clients can finish a beat ahead of the counter), then everything must
  // add up exactly — submitted == completed, no residue in flight.
  {
    auto client = Client::connect("127.0.0.1", server.port());
    constexpr std::uint64_t kTotal = kClients * kRequestsPerClient;
    obs::Snapshot snap;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      snap = client.stats().snapshot;
      const auto sent = counter_sum(snap, "ncpm_server_responses_sent_total");
      ASSERT_LE(sent, kTotal);
      if (sent == kTotal) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "responses_sent never reached " << kTotal;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(counter_sum(snap, "ncpm_server_frames_received_total"), kTotal);
    EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"), kTotal);
    EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"),
              counter_sum(snap, "ncpm_engine_completed_total") +
                  counter_sum(snap, "ncpm_engine_rejected_total"));
    EXPECT_EQ(gauge_value(snap, "ncpm_engine_outstanding"), 0);
    EXPECT_EQ(gauge_value(snap, "ncpm_engine_queue_depth"), 0);
  }

  storm_done.store(true, std::memory_order_release);
  scraper.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;
  server.stop();
}

TEST(ServerObsLoopback, TraceSpansAreSampledAndRetrievable) {
  ServerConfig cfg = make_config();
  cfg.trace_sample_n = 1;  // sample every request
  Server server(cfg);
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  constexpr std::uint64_t kCalls = 5;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_EQ(client.call(Mode::kSolve, small_instance(i)).status, RpcStatus::kOk);
  }

  const StatsReply reply = client.stats(/*include_traces=*/true);
  ASSERT_EQ(reply.spans.size(), kCalls);
  for (const auto& span : reply.spans) {
    EXPECT_GT(span.request_id, 0u);
    EXPECT_GT(span.conn_id, 0u);
    EXPECT_EQ(span.mode, static_cast<std::uint8_t>(Mode::kSolve));
    EXPECT_EQ(span.status, static_cast<std::uint8_t>(RpcStatus::kOk));
    // Milestones are ordered: accept <= frame read <= dispatch <= solve
    // start <= solve end <= response handed to the writer.
    EXPECT_LE(span.accept_ns, span.frame_read_ns);
    EXPECT_LE(span.frame_read_ns, span.dispatch_ns);
    EXPECT_LE(span.dispatch_ns, span.solve_start_ns);
    EXPECT_LE(span.solve_start_ns, span.solve_end_ns);
    EXPECT_LE(span.solve_end_ns, span.response_ns);
  }

  // Without the flag the reply carries no spans (and stays much smaller).
  EXPECT_TRUE(client.stats().spans.empty());
  server.stop();
}

TEST(ServerObsLoopback, TracingOffMeansNoSpansEver) {
  Server server{make_config()};  // trace_sample_n defaults to 0
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(client.call(Mode::kSolve, small_instance(1)).status, RpcStatus::kOk);
  EXPECT_TRUE(client.stats(/*include_traces=*/true).spans.empty());
  server.stop();
}

TEST(ServerObsLoopback, HttpMetricsEndpointServesPrometheusText) {
  ServerConfig cfg = make_config();
  cfg.metrics_port = 0;  // ephemeral
  Server server(cfg);
  server.start();
  ASSERT_GT(server.metrics_port(), 0);
  ASSERT_NE(server.metrics_port(), server.port());

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(client.call(Mode::kSolve, small_instance(3)).status, RpcStatus::kOk);
  // The session counts a response only after its write completes, on the
  // loop thread, so the client can hold the bytes a beat before the counter
  // moves; the metrics listener is another thread and would see 0.
  const auto counted_by = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().responses_sent < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), counted_by) << "responses_sent never reached 1";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto http_get = [&](const std::string& target) {
    Socket sock =
        Socket::connect_to("127.0.0.1", server.metrics_port(), std::chrono::seconds(5));
    const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    sock.send_all(req.data(), req.size());
    std::string response;
    char buf[4096];
    while (true) {
      const auto n = sock.recv_some(buf, sizeof(buf));
      if (n == 0) break;  // blocking socket: only EOF stops the read
      if (n > 0) response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  };

  const std::string ok = http_get("/metrics");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << ok.substr(0, 120);
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  const auto body_at = ok.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = ok.substr(body_at + 4);
  EXPECT_NE(body.find("# TYPE ncpm_server_responses_sent_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("ncpm_server_responses_sent_total 1\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE ncpm_engine_solve_ns histogram"), std::string::npos);
  EXPECT_NE(body.find("ncpm_engine_solve_ns_count{mode=\"solve\"} 1\n"),
            std::string::npos);

  // Anything but GET /metrics is a 404; the rpc port stays untouched.
  const std::string missing = http_get("/other");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

  EXPECT_EQ(client.call(Mode::kSolve, small_instance(4)).status, RpcStatus::kOk);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerObsLoopback, JsonLogCapturesLifecycleEvents) {
  ServerConfig cfg = make_config();
  cfg.log_json = true;
  std::mutex mu;
  std::vector<std::string> lines;
  cfg.log_sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  Server server(cfg);
  server.start();
  {
    auto client = Client::connect("127.0.0.1", server.port());
    ASSERT_EQ(client.call(Mode::kSolve, small_instance(2)).status, RpcStatus::kOk);
  }
  server.stop();

  std::lock_guard<std::mutex> lock(mu);
  const auto has_event = [&](const std::string& name) {
    const std::string needle = "\"event\":\"" + name + "\"";
    return std::any_of(lines.begin(), lines.end(), [&](const std::string& line) {
      return line.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(has_event("server_start"));
  EXPECT_TRUE(has_event("conn_open"));
  EXPECT_TRUE(has_event("conn_close"));
  EXPECT_TRUE(has_event("drain_begin"));
  EXPECT_TRUE(has_event("drain_end"));
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '\n');
    EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
  }
}

TEST(ServerObsLoopback, ServerStatsStructMirrorsTheRegistry) {
  Server server{make_config()};
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(client.call(Mode::kSolve, small_instance(9)).status, RpcStatus::kOk);
  client.ping();
  const auto snap = client.stats().snapshot;

  const ServerStats s = server.stats();
  EXPECT_EQ(s.connections_accepted,
            counter_sum(snap, "ncpm_server_connections_accepted_total"));
  EXPECT_EQ(s.frames_received, counter_sum(snap, "ncpm_server_frames_received_total"));
  EXPECT_EQ(s.responses_sent, counter_sum(snap, "ncpm_server_responses_sent_total"));
  EXPECT_EQ(s.pings_answered, counter_sum(snap, "ncpm_server_pings_answered_total"));
  EXPECT_EQ(s.stats_frames_answered, counter_sum(snap, "ncpm_server_stats_frames_total"));
  server.stop();
}

TEST(ServerObsLoopback, PhaseHistogramsReconcileWithTheSolveWindow) {
  Server server{make_config()};
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  constexpr std::uint64_t kCalls = 8;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_EQ(client.call(Mode::kSolve, small_instance(i)).status, RpcStatus::kOk);
  }
  const auto snap = client.stats().snapshot;

  // Every ncpm_solve_phase_ns series carries a known phase label, and the
  // exclusive-time discipline guarantees the per-phase total never exceeds
  // the engine's wall-clock solve window. The decode phase is excluded: it
  // is charged by the submitter *before* the solve window opens.
  std::uint64_t phase_total = 0;
  std::uint64_t solve_total = 0;
  std::uint64_t phase_series = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "ncpm_engine_solve_ns") solve_total += h.sum;
    if (h.name != "ncpm_solve_phase_ns") continue;
    ASSERT_EQ(h.labels.size(), 1u);
    ASSERT_EQ(h.labels[0].first, "phase");
    bool known = false;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      if (h.labels[0].second == obs::phase_name(p)) known = true;
    }
    EXPECT_TRUE(known) << "unexpected phase label " << h.labels[0].second;
    ++phase_series;
    if (h.labels[0].second != obs::phase_name(obs::Phase::kDecode)) phase_total += h.sum;
  }
  EXPECT_GT(phase_series, 0u) << "no ncpm_solve_phase_ns series in the scrape";
  EXPECT_GT(phase_total, 0u);
  EXPECT_GT(solve_total, 0u);
  EXPECT_LE(phase_total, solve_total);
  server.stop();
}

TEST(ServerObsLoopback, SlowRequestCaptureLogsEveryRequestOverTheBound) {
  ServerConfig cfg = make_config();
  cfg.slow_request_ns = 1;  // every served solve qualifies
  std::mutex mu;
  std::vector<std::string> lines;
  cfg.slow_log_sink = [&](std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  };
  Server server(cfg);
  server.start();

  auto client = Client::connect("127.0.0.1", server.port());
  constexpr std::uint64_t kCalls = 4;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_EQ(client.call(Mode::kSolve, small_instance(i)).status, RpcStatus::kOk);
  }
  const auto snap = client.stats().snapshot;
  EXPECT_EQ(counter_sum(snap, "ncpm_server_slow_requests_total"), kCalls);
  EXPECT_EQ(server.stats().slow_requests, kCalls);
  server.stop();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(lines.size(), kCalls);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"event\":\"slow_request\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"mode\":\"solve\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"solve_ns\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"queue_ns\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"payload_bytes\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"simd\":"), std::string::npos) << line;
    // The digest identifies the instance for offline repro; a served solve
    // always has a payload, so it is never the zero sentinel.
    EXPECT_NE(line.find("\"instance_digest\":"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"instance_digest\":\"0000000000000000\""), std::string::npos)
        << line;
    // The full fixed-schema phase breakdown rides every capture.
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      std::string key = "\"";
      key += obs::phase_name(p);
      key += "_ns\":";
      EXPECT_NE(line.find(key), std::string::npos) << line;
    }
  }
}

TEST(ServerObsLoopback, SlowRequestCaptureOffByDefault) {
  ServerConfig cfg = make_config();
  std::atomic<int> captured{0};
  cfg.slow_log_sink = [&](std::string_view) { captured.fetch_add(1); };
  Server server(cfg);  // slow_request_ns defaults to 0: capture disabled
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(client.call(Mode::kSolve, small_instance(1)).status, RpcStatus::kOk);
  EXPECT_EQ(counter_sum(client.stats().snapshot, "ncpm_server_slow_requests_total"), 0u);
  EXPECT_EQ(server.stats().slow_requests, 0u);
  server.stop();
  EXPECT_EQ(captured.load(), 0);
}

/// Holds one engine worker inside a completion callback until release() (or
/// destruction), so a test decides how long the engine stays busy instead
/// of racing a solve that may finish before the test thread runs again.
class WorkerHold {
 public:
  explicit WorkerHold(engine::Engine& engine) : released_(release_.get_future().share()) {
    engine.submit(engine::Request::popular(Mode::kSolve, small_instance(11)),
                  [released = released_](engine::Result) { released.wait(); });
  }
  ~WorkerHold() { release(); }
  WorkerHold(const WorkerHold&) = delete;
  WorkerHold& operator=(const WorkerHold&) = delete;

  void release() {
    if (held_) release_.set_value();
    held_ = false;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  bool held_ = true;
};

TEST(ServerObsLoopback, HealthAndReadinessProbesTrackTheServerLifecycle) {
  ServerConfig cfg = make_config();
  cfg.metrics_port = 0;
  cfg.engine = engine::EngineConfig{1, 1};  // one worker: queued work piles up
  cfg.max_in_flight_global = 2;
  Server server(cfg);
  server.start();
  const auto port = server.metrics_port();
  ASSERT_GT(port, 0);

  // Fresh server: alive and ready.
  EXPECT_EQ(http_exchange(port, "GET", "/healthz").rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(http_exchange(port, "GET", "/readyz").rfind("HTTP/1.0 200 OK\r\n", 0), 0u);

  // Overload: hold the one worker and queue two requests behind it, so
  // outstanding stays at the admission cap until we release it; readyz
  // must report 503 (and healthz must keep reporting 200 — the process is
  // alive, just busy).
  {
    WorkerHold hold(server.engine());
    std::vector<std::future<engine::Result>> pending;
    for (std::uint64_t i = 0; i < 2; ++i) {
      pending.push_back(
          server.engine().submit(engine::Request::popular(Mode::kSolve, small_instance(20 + i))));
    }
    const std::string readyz = http_exchange(port, "GET", "/readyz");
    EXPECT_EQ(readyz.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u) << readyz;
    EXPECT_NE(readyz.find("unready\n"), std::string::npos);
    EXPECT_EQ(http_exchange(port, "GET", "/healthz").rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
    hold.release();
    for (auto& f : pending) f.get();
  }

  // Back under the cap: ready again.
  EXPECT_EQ(http_exchange(port, "GET", "/readyz").rfind("HTTP/1.0 200 OK\r\n", 0), 0u);

  // Drain: stop() on a second thread. For the whole drain window the probes
  // stay answerable — healthz 200 (alive), readyz 503 (stopping) — then the
  // listener goes away with the server. The held worker keeps the window
  // open until a probe has seen the drain; a bound releases it if the 503
  // never comes.
  WorkerHold hold(server.engine());
  std::thread stopper([&] { server.stop(); });
  bool saw_draining = false;
  const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    const std::string readyz = http_exchange(port, "GET", "/readyz");
    if (readyz.empty()) break;  // metrics listener stopped: drain is over
    if (readyz.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0) == 0) {
      saw_draining = true;
      const std::string healthz = http_exchange(port, "GET", "/healthz");
      if (!healthz.empty()) {
        EXPECT_EQ(healthz.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
      }
    }
    if (saw_draining || std::chrono::steady_clock::now() > drain_deadline) hold.release();
  }
  stopper.join();
  EXPECT_TRUE(saw_draining) << "readyz never reported 503 during the drain window";
  EXPECT_FALSE(server.running());
}

TEST(ServerObsLoopback, HeadRequestsGetHeadersOnlyWithTheGetContentLength) {
  ServerConfig cfg = make_config();
  cfg.metrics_port = 0;
  Server server(cfg);
  server.start();
  const auto port = server.metrics_port();

  auto client = Client::connect("127.0.0.1", server.port());
  ASSERT_EQ(client.call(Mode::kSolve, small_instance(5)).status, RpcStatus::kOk);

  const auto split = [](const std::string& response) {
    const auto at = response.find("\r\n\r\n");
    EXPECT_NE(at, std::string::npos) << response.substr(0, 120);
    return std::pair<std::string, std::string>(response.substr(0, at + 4),
                                               response.substr(at + 4));
  };
  const auto content_length = [](const std::string& headers) {
    const auto at = headers.find("Content-Length: ");
    EXPECT_NE(at, std::string::npos) << headers;
    return std::stoul(headers.substr(at + 16));
  };

  // HEAD /metrics: the status line and headers of the GET — including a
  // Content-Length sized for the body GET would send — with no body bytes.
  const auto [get_headers, get_body] = split(http_exchange(port, "GET", "/metrics"));
  EXPECT_EQ(get_headers.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(content_length(get_headers), get_body.size());
  EXPECT_NE(get_body.find("ncpm_engine_completed_total"), std::string::npos);

  const auto [head_headers, head_body] = split(http_exchange(port, "HEAD", "/metrics"));
  EXPECT_EQ(head_headers.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_TRUE(head_body.empty()) << "HEAD carried " << head_body.size() << " body bytes";
  EXPECT_GT(content_length(head_headers), 0u);
  EXPECT_NE(head_headers.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  // HEAD works on the probe paths too.
  const auto [hh, hb] = split(http_exchange(port, "HEAD", "/healthz"));
  EXPECT_EQ(hh.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(content_length(hh), std::string("ok\n").size());
  EXPECT_TRUE(hb.empty());
  const auto [rh, rb] = split(http_exchange(port, "HEAD", "/readyz"));
  EXPECT_EQ(rh.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(content_length(rh), std::string("ready\n").size());
  EXPECT_TRUE(rb.empty());
  const auto [gh, gb] = split(http_exchange(port, "GET", "/healthz"));
  EXPECT_EQ(gh.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_EQ(gb, "ok\n");

  // 404s still carry an exact Content-Length (zero body).
  const auto [nh, nb] = split(http_exchange(port, "GET", "/nope"));
  EXPECT_EQ(nh.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  EXPECT_EQ(content_length(nh), 0u);
  EXPECT_TRUE(nb.empty());
  const auto [ph, pb] = split(http_exchange(port, "POST", "/metrics"));
  EXPECT_EQ(ph.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
  EXPECT_TRUE(pb.empty());

  server.stop();
}

}  // namespace
}  // namespace ncpm::net
