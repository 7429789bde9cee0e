// Serving over real sockets: requests/sec and round-trip latency
// percentiles against connection count, loopback TCP, one ncpm-rpc v1
// server with a fixed 4-worker engine behind it.
//
// BM_ServerLoopback        — per-connection sequential calls; reports
//                            req/s plus p50/p90/p99 round-trip micros
//                            (the interactive-client view).
// BM_ServerLoopbackPipelined — call_batch with the client's default
//                            16-deep window; reports req/s (the
//                            throughput-client view).
// BM_ServerConnectionSweep — 64/256/1024 persistent connections against
//                            the epoll core, pipelined tiny requests from
//                            a bounded client pool; reports req/s (the
//                            C10K view — connection scaling, not solver
//                            throughput).
//
// The solve itself is small (the same instance shapes across both), so
// the numbers are dominated by what this PR added: framing, dispatch,
// out-of-order write-back, and per-connection serialisation.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace {

const std::vector<ncpm::core::Instance>& instance_mix() {
  static const std::vector<ncpm::core::Instance> mix = [] {
    std::vector<ncpm::core::Instance> instances;
    for (int i = 0; i < 4; ++i) {
      ncpm::gen::SolvableConfig cfg;
      cfg.num_applicants = 150 + 50 * i;
      cfg.num_posts = cfg.num_applicants * 3;
      cfg.contention = 2.0;
      cfg.all_f_fraction = 0.2;
      cfg.seed = 4242 + static_cast<std::uint64_t>(i);
      instances.push_back(ncpm::gen::solvable_strict_instance(cfg));
    }
    return instances;
  }();
  return mix;
}

constexpr ncpm::engine::Mode kModeCycle[] = {
    ncpm::engine::Mode::kSolve, ncpm::engine::Mode::kMaxCard, ncpm::engine::Mode::kCount,
    ncpm::engine::Mode::kCheck};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

void BM_ServerLoopback(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  constexpr std::size_t kCallsPerConnection = 32;

  ncpm::net::ServerConfig cfg;
  cfg.engine = ncpm::engine::EngineConfig{4, 1};
  ncpm::net::Server server(cfg);
  server.start();

  // Connections persist across iterations — the serving steady state.
  std::vector<ncpm::net::Client> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(ncpm::net::Client::connect("127.0.0.1", server.port()));
  }

  const auto& instances = instance_mix();
  std::mutex lat_mu;
  std::vector<double> latencies_us;
  std::size_t total_requests = 0;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(kCallsPerConnection);
        for (std::size_t i = 0; i < kCallsPerConnection; ++i) {
          const auto& inst = instances[(i + static_cast<std::size_t>(c)) % instances.size()];
          const auto mode = kModeCycle[i % std::size(kModeCycle)];
          const auto t0 = std::chrono::steady_clock::now();
          auto resp = clients[static_cast<std::size_t>(c)].call(mode, inst);
          benchmark::DoNotOptimize(resp);
          const auto t1 = std::chrono::steady_clock::now();
          local.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    total_requests += static_cast<std::size_t>(connections) * kCallsPerConnection;
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = percentile(latencies_us, 0.50);
  state.counters["p90_us"] = percentile(latencies_us, 0.90);
  state.counters["p99_us"] = percentile(latencies_us, 0.99);

  for (auto& client : clients) client.close();
  server.stop();
}
BENCHMARK(BM_ServerLoopback)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServerLoopbackPipelined(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  constexpr std::size_t kBatchPerConnection = 64;

  ncpm::net::ServerConfig cfg;
  cfg.engine = ncpm::engine::EngineConfig{4, 1};
  ncpm::net::Server server(cfg);
  server.start();

  std::vector<ncpm::net::Client> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(ncpm::net::Client::connect("127.0.0.1", server.port()));
  }

  const auto& instances = instance_mix();
  std::vector<ncpm::net::RpcCall> calls;
  calls.reserve(kBatchPerConnection);
  for (std::size_t i = 0; i < kBatchPerConnection; ++i) {
    calls.push_back(
        {kModeCycle[i % std::size(kModeCycle)], instances[i % instances.size()], 0});
  }

  std::size_t total_requests = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        auto responses = clients[static_cast<std::size_t>(c)].call_batch(calls);
        benchmark::DoNotOptimize(responses);
      });
    }
    for (auto& t : threads) t.join();
    total_requests += static_cast<std::size_t>(connections) * kBatchPerConnection;
  }
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(total_requests), benchmark::Counter::kIsRate);

  for (auto& client : clients) client.close();
  server.stop();
}
BENCHMARK(BM_ServerLoopbackPipelined)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServerOverload(benchmark::State& state) {
  // Demand is `multiplier` x the server's global admission cap: every client
  // keeps one call in flight, so with cap 8 and 16 clients roughly half the
  // arrivals are shed. Reports the shed rate and the p99 round-trip of the
  // *admitted* requests — the overload contract is "refuse fast, stay fast
  // for what you accept", and this measures both halves.
  const std::size_t multiplier = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kGlobalCap = 8;
  constexpr std::size_t kCallsPerClient = 16;
  const std::size_t clients_n = kGlobalCap * multiplier;

  ncpm::net::ServerConfig cfg;
  cfg.engine = ncpm::engine::EngineConfig{2, 1};
  cfg.max_in_flight_global = kGlobalCap;
  ncpm::net::Server server(cfg);
  server.start();

  std::vector<ncpm::net::Client> clients;
  for (std::size_t c = 0; c < clients_n; ++c) {
    clients.push_back(ncpm::net::Client::connect("127.0.0.1", server.port()));
  }

  const auto& instances = instance_mix();
  std::mutex lat_mu;
  std::vector<double> admitted_us;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::atomic<bool> bad_status{false};

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients_n);
    for (std::size_t c = 0; c < clients_n; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local;
        std::size_t local_admitted = 0;
        std::size_t local_shed = 0;
        for (std::size_t i = 0; i < kCallsPerClient; ++i) {
          const auto& inst = instances[(i + c) % instances.size()];
          const auto mode = kModeCycle[i % std::size(kModeCycle)];
          const auto t0 = std::chrono::steady_clock::now();
          const auto resp = clients[c].call(mode, inst);
          const auto t1 = std::chrono::steady_clock::now();
          if (resp.status == ncpm::net::RpcStatus::kOverloaded) {
            ++local_shed;
          } else if (resp.status == ncpm::net::RpcStatus::kOk ||
                     resp.status == ncpm::net::RpcStatus::kNoSolution) {
            ++local_admitted;
            local.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          } else {
            bad_status.store(true);  // kRejected here would be a server bug
          }
        }
        std::lock_guard<std::mutex> lock(lat_mu);
        admitted += local_admitted;
        shed += local_shed;
        admitted_us.insert(admitted_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
  }
  if (bad_status.load()) {
    state.SkipWithError("live server answered something other than ok/no-solution/overloaded");
    return;
  }

  std::sort(admitted_us.begin(), admitted_us.end());
  const auto total = admitted + shed;
  state.counters["admitted/s"] =
      benchmark::Counter(static_cast<double>(admitted), benchmark::Counter::kIsRate);
  state.counters["shed_rate"] =
      total == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(total);
  state.counters["admitted_p50_us"] = percentile(admitted_us, 0.50);
  state.counters["admitted_p99_us"] = percentile(admitted_us, 0.99);

  for (auto& client : clients) client.close();
  server.stop();
}
BENCHMARK(BM_ServerOverload)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Best-effort RLIMIT_NOFILE raise so the 1024-connection point fits.
bool fd_budget_holds(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur < want) {
    rlimit raised = lim;
    raised.rlim_cur = (lim.rlim_max == RLIM_INFINITY)
                          ? want
                          : std::min<rlim_t>(lim.rlim_max, static_cast<rlim_t>(want));
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur >= want;
}

void BM_ServerConnectionSweep(benchmark::State& state) {
  const std::size_t connections = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPipelineDepth = 8;
  constexpr std::size_t kClientThreads = 8;

  if (!fd_budget_holds(2 * connections + 64)) {
    state.SkipWithError("RLIMIT_NOFILE too small for this connection count");
    return;
  }

  ncpm::net::ServerConfig cfg;
  cfg.backlog = 256;
  cfg.engine = ncpm::engine::EngineConfig{4, 1};
  ncpm::net::Server server(cfg);
  server.start();

  // One tiny instance, pre-encoded: the sweep measures how the reactor
  // scales with live sockets, so keep frames small and solves trivial.
  ncpm::gen::SolvableConfig icfg;
  icfg.num_applicants = 12;
  icfg.num_posts = 30;
  icfg.seed = 77;
  const auto inst = ncpm::gen::solvable_strict_instance(icfg);
  std::vector<std::string> request_frames;
  for (std::size_t i = 0; i < kPipelineDepth; ++i) {
    ncpm::net::RequestHead head;
    head.request_id = i + 1;
    head.mode_raw = static_cast<std::uint8_t>(kModeCycle[i % std::size(kModeCycle)]);
    request_frames.push_back(ncpm::net::encode_request_frame(head, inst));
  }

  // Persistent raw sockets, handshaken up front (steady serving state).
  std::vector<ncpm::net::Socket> sockets;
  sockets.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    sockets.push_back(
        ncpm::net::Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(30)));
    sockets.back().set_recv_timeout(std::chrono::seconds(120));
    ncpm::net::send_hello(sockets.back());
    if (!ncpm::net::expect_hello(sockets.back())) {
      state.SkipWithError("handshake failed during connection ramp");
      return;
    }
  }

  std::size_t total_requests = 0;
  for (auto _ : state) {
    // Bounded client pool: each worker drives its stride of connections —
    // the point is many sockets, not many client threads.
    std::vector<std::thread> workers;
    workers.reserve(kClientThreads);
    std::atomic<bool> failed{false};
    for (std::size_t w = 0; w < kClientThreads; ++w) {
      workers.emplace_back([&, w] {
        std::vector<std::uint8_t> body;
        for (std::size_t c = w; c < connections; c += kClientThreads) {
          auto& sock = sockets[c];
          for (const auto& frame : request_frames) {
            sock.send_all(frame.data(), frame.size());
          }
          for (std::size_t r = 0; r < kPipelineDepth; ++r) {
            if (!ncpm::net::read_frame_body(sock, body)) {
              failed.store(true);
              return;
            }
            benchmark::DoNotOptimize(body.data());
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    if (failed.load()) {
      state.SkipWithError("connection dropped mid-sweep");
      return;
    }
    total_requests += connections * kPipelineDepth;
  }
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["connections"] = static_cast<double>(connections);

  for (auto& sock : sockets) sock.close();
  server.stop();
}
BENCHMARK(BM_ServerConnectionSweep)->Arg(64)->Arg(256)->Arg(1024)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MetricsOverhead(benchmark::State& state) {
  // The observability tax on the serving hot path, same pipelined workload
  // at three points:
  //   /0 — metrics registry only, solver-phase profiler OFF
  //        (engine.profile_phases = false): every PhaseScope in the solver
  //        takes the detached no-op path. The true floor.
  //   /1 — phase profiler ON (the default): per-lane PhaseAccum attach,
  //        RAII scope timing in every solver stage, per-phase histogram
  //        flush per request. Acceptance: req/s within ~2% of /0.
  //   /2 — everything else on top: every request traced (sample_every = 1),
  //        a live scraper pulling stats frames every 25 ms on its own
  //        connection (hundreds of times a real Prometheus cadence), and
  //        the HTTP /metrics endpoint bound — a busy production
  //        configuration. The scrape interval matters on small machines:
  //        rendering a snapshot is not free, so a scraper spinning with no
  //        sleep measures CPU theft by the scraper loop itself, not the
  //        serving path's tax.
  const int level = static_cast<int>(state.range(0));
  const bool profile_phases = level >= 1;
  const bool full_obs = level >= 2;
  constexpr int kConnections = 4;
  constexpr std::size_t kBatchPerConnection = 64;

  ncpm::net::ServerConfig cfg;
  cfg.engine = ncpm::engine::EngineConfig{4, 1};
  cfg.engine.profile_phases = profile_phases;
  if (full_obs) {
    cfg.trace_sample_n = 1;
    cfg.metrics_port = 0;
  }
  ncpm::net::Server server(cfg);
  server.start();

  std::vector<ncpm::net::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(ncpm::net::Client::connect("127.0.0.1", server.port()));
  }

  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  if (full_obs) {
    scraper = std::thread([&] {
      auto probe = ncpm::net::Client::connect("127.0.0.1", server.port());
      while (!stop_scraper.load(std::memory_order_acquire)) {
        auto reply = probe.stats(/*include_traces=*/true);
        benchmark::DoNotOptimize(reply.snapshot.counters.data());
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }

  const auto& instances = instance_mix();
  std::vector<ncpm::net::RpcCall> calls;
  calls.reserve(kBatchPerConnection);
  for (std::size_t i = 0; i < kBatchPerConnection; ++i) {
    calls.push_back(
        {kModeCycle[i % std::size(kModeCycle)], instances[i % instances.size()], 0});
  }

  std::size_t total_requests = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        auto responses = clients[static_cast<std::size_t>(c)].call_batch(calls);
        benchmark::DoNotOptimize(responses);
      });
    }
    for (auto& t : threads) t.join();
    total_requests += static_cast<std::size_t>(kConnections) * kBatchPerConnection;
  }
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["profile_phases"] = profile_phases ? 1.0 : 0.0;

  if (full_obs) {
    stop_scraper.store(true, std::memory_order_release);
    scraper.join();
  }
  for (auto& client : clients) client.close();
  server.stop();
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->Arg(2)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
