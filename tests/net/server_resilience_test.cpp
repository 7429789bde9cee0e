// Overload shedding, deadline shedding, keepalive ping/pong, and
// never-hello reaping — all four behaviours are part of the server's
// semantic contract.
//
// Determinism discipline: tests that need a busy engine occupy its single
// worker with a large instance submitted *directly* (no wire race), so the
// admission gate sees outstanding()/queue_depth() at known values when the
// wire requests arrive.

#include "net/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "net/client.hpp"

namespace ncpm::net {
namespace {

using namespace std::chrono_literals;
using engine::Mode;

core::Instance small_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 12;
  cfg.num_posts = 30;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Big enough that one worker chews on it for much longer than a handful
/// of loopback round trips.
core::Instance busywork_instance() {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 300000;
  cfg.num_posts = 900000;
  cfg.contention = 2.0;
  cfg.seed = 77;
  return gen::solvable_strict_instance(cfg);
}

TEST(ServerResilience, InFlightCapShedsWithOverloadedNeverRejected) {
  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{1, 1};
  cfg.max_in_flight_global = 1;
  Server server(cfg);
  server.start();

  // Occupy the single worker: outstanding() == 1 == the cap, so every wire
  // request is shed until this solve fulfills.
  auto busy = server.engine().submit(engine::Request::popular(Mode::kSolve, busywork_instance()));

  auto client = Client::connect("127.0.0.1", server.port());
  std::vector<RpcCall> calls(4, RpcCall{Mode::kSolve, small_instance(1), 0});
  const auto responses = client.call_batch(calls);
  ASSERT_EQ(responses.size(), calls.size());
  for (const auto& resp : responses) {
    // The contract under test: a live server says kOverloaded — kRejected
    // is reserved for shutdown.
    EXPECT_EQ(resp.status, RpcStatus::kOverloaded) << rpc_status_name(resp.status);
    EXPECT_NE(resp.status, RpcStatus::kRejected);
    EXPECT_FALSE(resp.error.empty());
  }

  // Once the busywork drains, the same connection is served again.
  busy.get();
  EXPECT_EQ(client.call(Mode::kSolve, small_instance(1)).status, RpcStatus::kOk);

  server.stop();
  EXPECT_EQ(server.stats().overloaded_shed, calls.size());
}

TEST(ServerResilience, InFlightCapBoundsTheQueueDepth) {
  // outstanding() counts queued work too, so the in-flight cap alone bounds
  // the engine queue: with one worker and a cap of 2, one busy request and
  // one queued one fill it, and a third is shed before it can queue.
  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{1, 1};
  cfg.max_in_flight_global = 2;
  Server server(cfg);
  server.start();

  auto busy = server.engine().submit(engine::Request::popular(Mode::kSolve, busywork_instance()));
  // Queue the second request only once the worker has taken the first.
  while (server.engine().queue_depth() != 0) std::this_thread::sleep_for(1ms);
  auto queued = server.engine().submit(engine::Request::popular(Mode::kSolve, small_instance(2)));

  auto client = Client::connect("127.0.0.1", server.port());
  const auto resp = client.call(Mode::kSolve, small_instance(3));
  EXPECT_EQ(resp.status, RpcStatus::kOverloaded) << rpc_status_name(resp.status);
  EXPECT_LE(server.engine().queue_depth(), 1u);

  busy.get();
  queued.get();
  EXPECT_EQ(client.call(Mode::kSolve, small_instance(3)).status, RpcStatus::kOk);

  server.stop();
  EXPECT_GE(server.stats().overloaded_shed, 1u);
}

TEST(ServerResilience, ExpiredDeadlineIsShedBeforeDecodingThePayload) {
  Server server;
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  // 1 ns of budget from receipt: gone by dispatch, so the shed gate (not
  // the engine) answers.
  const auto resp = client.call(Mode::kSolve, small_instance(4), 1);
  EXPECT_EQ(resp.status, RpcStatus::kDeadlineExpired);
  server.stop();
  EXPECT_EQ(server.stats().deadline_shed, 1u);
  EXPECT_EQ(server.stats().overloaded_shed, 0u);
}

TEST(ServerResilience, PingPongAnswersWithoutTakingASlot) {
  Server server;
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());

  client.ping();
  client.ping();
  ASSERT_EQ(client.call(Mode::kCount, small_instance(5)).status, RpcStatus::kOk);
  client.ping();

  client.close();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.pings_answered, 3u);
  // Pongs are not responses: they hold no slot and do not count as served.
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.frames_received, 1u);
}

TEST(ServerResilience, PingAnswersWhileEveryWorkerIsBusy) {
  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{1, 1};
  Server server(cfg);
  server.start();

  auto busy = server.engine().submit(engine::Request::popular(Mode::kSolve, busywork_instance()));

  ClientConfig ccfg;
  ccfg.recv_timeout = 5000ms;
  auto client = Client::connect("127.0.0.1", server.port(), ccfg);
  // The pong comes from the protocol layer, not a worker — it cannot be
  // stuck behind the solve.
  client.ping();
  busy.get();
  server.stop();
  EXPECT_EQ(server.stats().pings_answered, 1u);
}

TEST(ServerResilience, NeverHelloConnectionsAreReapedWithinTheTimeout) {
  ServerConfig cfg;
  cfg.hello_timeout = 200ms;
  Server server(cfg);
  server.start();

  // Connect and send nothing — a liveness hole unless the server reaps it.
  Socket mute = Socket::connect_to("127.0.0.1", server.port(), 5s);
  mute.set_recv_timeout(std::chrono::milliseconds(5000));
  const auto started = std::chrono::steady_clock::now();
  std::uint8_t byte = 0;
  bool reaped = false;
  try {
    reaped = !mute.recv_exact(&byte, 1);  // clean FIN
  } catch (const NetError&) {
    reaped = true;  // RST is also a reap
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_TRUE(reaped) << "server never closed the mute connection";
  EXPECT_LT(elapsed, 4s) << "reap took longer than the configured timeout allows";

  // The reap costs the mute connection only; a polite client still works.
  auto client = Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.call(Mode::kCount, small_instance(6)).status, RpcStatus::kOk);

  server.stop();
  EXPECT_EQ(server.stats().hello_timeouts, 1u);
}

TEST(ServerResilience, ZeroHelloTimeoutMeansNoReap) {
  ServerConfig cfg;
  cfg.hello_timeout = 0ms;  // the documented escape hatch
  Server server(cfg);
  server.start();

  Socket mute = Socket::connect_to("127.0.0.1", server.port(), 5s);
  std::this_thread::sleep_for(300ms);
  // Still open: a late hello is accepted and the connection serves.
  send_hello(mute);
  ASSERT_TRUE(expect_hello(mute));
  mute.close();
  server.stop();
  EXPECT_EQ(server.stats().hello_timeouts, 0u);
}

}  // namespace
}  // namespace ncpm::net
