// Chaos suite (CTest label `chaos`): the ncpm-rpc stack with a seeded
// ChaosProxy between client and server — torn frames, delivery delays,
// mid-frame RSTs, byte corruption, and stalls, all replayable from the
// config seed.
//
// The gate: a ResilientClient run under fault injection must lose ZERO
// requests and return results byte-identical to direct Engine::submit.
// Framing breaks cost a connection (the resilient client redials);
// payload corruption inside a well-delimited frame costs exactly one
// error response and nothing else.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "net/client.hpp"
#include "net/resilient_client.hpp"
#include "net/server.hpp"
#include "support/chaos_proxy.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NCPM_CHAOS_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NCPM_CHAOS_SANITIZED 1
#endif
#endif

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

std::vector<core::Instance> mixed_instances(std::uint64_t seed) {
  std::vector<core::Instance> instances;
  for (int i = 0; i < 4; ++i) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 16 + 16 * i;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.contention = 2.0;
    cfg.seed = seed * 100 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  for (int i = 0; i < 2; ++i) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 15 + i * 10;
    cfg.num_posts = 12 + i * 10;
    cfg.seed = seed * 100 + 50 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::random_strict_instance(cfg));
  }
  instances.push_back(gen::contention_instance(6));
  return instances;
}

constexpr Mode kModes[] = {Mode::kSolve, Mode::kMaxCard, Mode::kFair, Mode::kRankMaximal,
                           Mode::kCount, Mode::kCheck};

/// Same byte-level comparison contract as the loopback suite.
void expect_matches_direct(const ResponseFrame& resp, const engine::Result& ref) {
  switch (ref.status) {
    case engine::Status::kOk:
      ASSERT_EQ(resp.status, RpcStatus::kOk) << resp.error;
      break;
    case engine::Status::kNoSolution:
      ASSERT_EQ(resp.status, RpcStatus::kNoSolution);
      break;
    default:
      FAIL() << "reference result has unexpected status";
  }
  ASSERT_EQ(resp.matching.has_value(), ref.matching.has_value());
  if (ref.matching.has_value()) {
    EXPECT_EQ(io::encode_matching_payload(*resp.matching),
              io::encode_matching_payload(*ref.matching));
    EXPECT_EQ(resp.matching_size, ref.matching_size);
  }
  EXPECT_EQ(resp.count, ref.count);
  ASSERT_EQ(resp.check.has_value(), ref.check.has_value());
  if (ref.check.has_value()) {
    EXPECT_EQ(resp.check->admits_popular, ref.check->admits_popular);
    EXPECT_EQ(resp.check->size, ref.check->size);
    EXPECT_EQ(resp.check->count, ref.check->count);
  }
}

/// The acceptance gate: 4 resilient clients x 24 mixed-mode requests
/// through a proxy tearing every frame, delaying slices, and randomly
/// resetting connections. Zero requests lost, every result byte-identical
/// to the direct engine. No corruption in this storm — a flipped byte can
/// decode to a *different valid instance*, which would break the
/// byte-identical contract without being a serving bug.
TEST(ServerChaos, RetryStormLosesNothingAndMatchesDirectEngine) {
  constexpr int kClients = 4;
  constexpr std::size_t kRequestsPerClient = 24;

  ServerConfig scfg;
  scfg.engine = engine::EngineConfig{4, 1};
  Server server(scfg);
  server.start();

  ChaosConfig ccfg;
  ccfg.upstream_port = server.port();
  ccfg.seed = 0xc4a05u;
  ccfg.max_chunk = 7;       // every frame torn into 1..7-byte slices
  ccfg.delay_ppm = 2000;    // occasional 1 ms slice delays
  ccfg.delay_ms = 1ms;
  ccfg.reset_ppm = 300;     // rare mid-anything RSTs; retries absorb them
  ChaosProxy proxy(ccfg);
  proxy.start();

  const auto instances = mixed_instances(42);
  std::vector<RpcCall> calls;
  std::vector<engine::Result> reference;
  {
    engine::Engine direct(engine::EngineConfig{1, 1});
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      calls.push_back({kModes[i % std::size(kModes)], instances[i % instances.size()], 0});
      reference.push_back(
          direct.submit(engine::Request::popular(calls[i].mode, calls[i].instance)).get());
    }
  }

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  std::vector<ResilientClientStats> stats(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ResilientClientConfig rcfg;
        rcfg.client.recv_timeout = 10000ms;
        rcfg.max_attempts = 10;
        rcfg.backoff.initial = 1ms;
        rcfg.backoff.max = 20ms;
        rcfg.jitter_seed = 0x9000 + static_cast<std::uint64_t>(c);
        ResilientClient client("127.0.0.1", proxy.port(), rcfg);
        for (std::size_t i = 0; i < calls.size(); ++i) {
          SCOPED_TRACE("client " + std::to_string(c) + " request " + std::to_string(i));
          const auto resp = client.call(calls[i].mode, calls[i].instance);
          expect_matches_direct(resp, reference[i]);
        }
        stats[static_cast<std::size_t>(c)] = client.stats();
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;

  std::uint64_t attempts = 0;
  for (const auto& s : stats) attempts += s.attempts;
  EXPECT_GE(attempts, static_cast<std::uint64_t>(kClients) * kRequestsPerClient);

  proxy.stop();
  server.stop();
  // Whatever the wire did, the server itself never rejected a live-time
  // request (kRejected is shutdown-only) and sheds were impossible — no
  // admission caps configured.
  EXPECT_EQ(server.stats().overloaded_shed, 0u);
}

/// One-shot RST mid-request: the first attempt dies on a torn connection,
/// the redial (through the now-clean proxy) succeeds. Framing breaks cost
/// the connection, never a wrong answer.
TEST(ServerChaos, ResetMidFrameRedialsAndCompletes) {
  Server server;
  server.start();

  ChaosConfig ccfg;
  ccfg.upstream_port = server.port();
  ccfg.seed = 7;
  // Hello is 12 bytes; the RST lands 20 bytes into the first request frame.
  ccfg.reset_after_client_bytes = 32;
  ChaosProxy proxy(ccfg);
  proxy.start();

  ResilientClientConfig rcfg;
  rcfg.max_attempts = 4;
  rcfg.backoff.initial = 1ms;
  rcfg.backoff.max = 5ms;
  ResilientClient client("127.0.0.1", proxy.port(), rcfg);
  const auto resp = client.call(Mode::kSolve, small_instance(1));
  EXPECT_EQ(resp.status, RpcStatus::kOk);

  EXPECT_EQ(client.stats().attempts, 2u);
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().reconnects, 2u);  // initial dial + post-reset redial
  EXPECT_EQ(proxy.stats().resets, 1u);

  proxy.stop();
  server.stop();
}

/// One-shot stall on the server->client leg: the proxy stops draining
/// mid-response, the server's bounded send_all trips its send timeout and
/// abandons the connection, the client sees the broken stream and the
/// retry completes on a fresh connection.
TEST(ServerChaos, StallUntilServerSendTimeoutThenRetryCompletes) {
#ifdef NCPM_CHAOS_SANITIZED
  // Real-time physics: the response must outsize the kernel send buffer and
  // the 250 ms send timeout must race a 1.5 s stall. Sanitizer slowdown
  // turns the multi-megabyte solve into minutes per attempt, so this one
  // runs in the Release chaos job only (the soak-test precedent).
  GTEST_SKIP() << "stall timing is a Release-only scenario; sanitizer overhead distorts it";
#endif
  ServerConfig scfg;
  scfg.send_timeout = 250ms;
  Server server(scfg);
  server.start();

  ChaosConfig ccfg;
  ccfg.upstream_port = server.port();
  ccfg.seed = 11;
  // Server hello (12) + response head: the stall lands inside the fat
  // response body and parks long enough to trip the 250 ms send timeout.
  ccfg.stall_after_server_bytes = 100;
  ccfg.stall_ms = 1500ms;
  // Small receive window toward the server: without this, receive-side
  // autotuning parks the whole response in kernel buffers and the server
  // never blocks long enough to notice the stall.
  ccfg.upstream_rcvbuf = 16 * 1024;
  ChaosProxy proxy(ccfg);
  proxy.start();

  // ~n matched pairs => a matching payload larger than the server's
  // autotuned send buffer (tcp_wmem caps out at a few MB), so its writer
  // genuinely blocks against the stall.
  gen::SolvableConfig icfg;
  icfg.num_applicants = 700000;
  icfg.num_posts = 1400000;
  icfg.seed = 33;
  const auto inst = gen::solvable_strict_instance(icfg);

  ResilientClientConfig rcfg;
  rcfg.client.recv_timeout = 20000ms;
  rcfg.max_attempts = 4;
  rcfg.backoff.initial = 1ms;
  rcfg.backoff.max = 5ms;
  ResilientClient client("127.0.0.1", proxy.port(), rcfg);
  const auto resp = client.call(Mode::kSolve, inst);
  EXPECT_EQ(resp.status, RpcStatus::kOk);
  ASSERT_TRUE(resp.matching.has_value());

  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(proxy.stats().stalls, 1u);

  proxy.stop();
  server.stop();
}

/// One-shot byte flip inside the instance payload of a well-delimited
/// frame: exactly one kMalformedFrame error response, the connection
/// survives, and the next request (same connection, clean bytes) solves.
TEST(ServerChaos, CorruptionInsidePayloadCostsExactlyOneErrorResponse) {
  Server server;
  server.start();

  ChaosConfig ccfg;
  ccfg.upstream_port = server.port();
  ccfg.seed = 13;
  // Client hello (12) + frame length (4) + request head (18) = 34 bytes;
  // byte 37 (1-based) is early instance-payload material whose corruption
  // fails validation instead of re-encoding a different valid instance.
  ccfg.corrupt_client_byte = 37;
  ChaosProxy proxy(ccfg);
  proxy.start();

  auto client = Client::connect("127.0.0.1", proxy.port());
  const auto inst = small_instance(2);

  const auto corrupted = client.call(Mode::kSolve, inst);
  EXPECT_EQ(corrupted.status, RpcStatus::kMalformedFrame) << rpc_status_name(corrupted.status);
  EXPECT_FALSE(corrupted.error.empty());

  // Same connection, fault spent: the stream was never desynchronised.
  const auto clean = client.call(Mode::kSolve, inst);
  EXPECT_EQ(clean.status, RpcStatus::kOk);
  ASSERT_TRUE(clean.matching.has_value());

  EXPECT_EQ(proxy.stats().corruptions, 1u);

  client.close();
  proxy.stop();
  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, 1u);
  EXPECT_EQ(server.stats().responses_sent, 2u);
}

/// Determinism spot-check: two proxies with the same seed and the same
/// single-connection byte stream fire their probabilistic faults at the
/// same slice boundaries (same stats), so a failing chaos run replays.
TEST(ServerChaos, SameSeedSameFaultSchedule) {
  Server server;
  server.start();

  const auto inst = small_instance(3);
  auto run_once = [&](std::uint64_t seed) {
    ChaosConfig ccfg;
    ccfg.upstream_port = server.port();
    ccfg.seed = seed;
    ccfg.max_chunk = 5;
    ccfg.delay_ppm = 50000;  // frequent, so schedules differ across seeds
    ccfg.delay_ms = 0ms;     // zero-length: schedule observable, test fast
    ChaosProxy proxy(ccfg);
    proxy.start();
    auto client = Client::connect("127.0.0.1", proxy.port());
    EXPECT_EQ(client.call(Mode::kSolve, inst).status, RpcStatus::kOk);
    client.close();
    proxy.stop();
    return proxy.stats();
  };

  const auto a = run_once(21);
  const auto b = run_once(21);
  EXPECT_EQ(a.client_bytes, b.client_bytes);
  EXPECT_EQ(a.server_bytes, b.server_bytes);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.resets, b.resets);

  server.stop();
}

}  // namespace
}  // namespace ncpm::net
