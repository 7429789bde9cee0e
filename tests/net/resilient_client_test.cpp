// ResilientClient unit + small-integration tests.
//
// The pure piece — full-jitter backoff — is tested without sockets or
// sleeps: backoff_with_jitter takes the RNG state by reference. The
// integration pieces use a real Server on loopback but no fault injection
// (the chaos suite owns that).

#include "net/resilient_client.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "gen/generators.hpp"
#include "net/server.hpp"

namespace ncpm::net {
namespace {

using namespace std::chrono_literals;
using engine::Mode;

// ---------------------------------------------------------------------------
// backoff_with_jitter
// ---------------------------------------------------------------------------

TEST(BackoffJitter, DrawsStayWithinTheExponentialCeiling) {
  BackoffPolicy policy;
  policy.initial = 50ms;
  policy.max = 2000ms;
  policy.multiplier = 2.0;
  std::uint64_t state = 7;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const auto ceiling = std::min<std::int64_t>(
        policy.max.count(), static_cast<std::int64_t>(50.0 * (1LL << attempt)));
    for (int draw = 0; draw < 200; ++draw) {
      const auto pause = backoff_with_jitter(policy, attempt, state);
      ASSERT_GE(pause.count(), 0) << "attempt " << attempt;
      ASSERT_LE(pause.count(), ceiling) << "attempt " << attempt;
    }
  }
}

TEST(BackoffJitter, DrawsActuallyJitter) {
  BackoffPolicy policy;
  std::uint64_t state = 99;
  std::vector<std::int64_t> draws;
  for (int i = 0; i < 32; ++i) {
    draws.push_back(backoff_with_jitter(policy, 3, state).count());
  }
  // Full jitter over [0, 400]: 32 identical draws would mean the RNG is
  // not being advanced.
  bool varied = false;
  for (std::size_t i = 1; i < draws.size(); ++i) varied |= draws[i] != draws[0];
  EXPECT_TRUE(varied);
}

TEST(BackoffJitter, SameSeedSameSchedule) {
  BackoffPolicy policy;
  std::uint64_t a = 42;
  std::uint64_t b = 42;
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(backoff_with_jitter(policy, attempt, a), backoff_with_jitter(policy, attempt, b));
  }
}

TEST(BackoffJitter, LaterAttemptsAreCappedAtMax) {
  BackoffPolicy policy;
  policy.initial = 10ms;
  policy.max = 80ms;
  std::uint64_t state = 5;
  for (int draw = 0; draw < 500; ++draw) {
    EXPECT_LE(backoff_with_jitter(policy, 30, state).count(), 80);
  }
}

// ---------------------------------------------------------------------------
// rpc_status_retryable
// ---------------------------------------------------------------------------

TEST(RpcStatusRetryable, OnlyTransientStatusesRetry) {
  EXPECT_TRUE(rpc_status_retryable(RpcStatus::kOverloaded));
  EXPECT_TRUE(rpc_status_retryable(RpcStatus::kRejected));
  EXPECT_TRUE(rpc_status_retryable(RpcStatus::kMalformedFrame));

  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kOk));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kNoSolution));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kDeadlineExpired));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kCancelled));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kInvalidRequest));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kSolverError));
  EXPECT_FALSE(rpc_status_retryable(RpcStatus::kUnsupportedMode));
}

// ---------------------------------------------------------------------------
// Integration on loopback (no fault injection — see server_chaos_test)
// ---------------------------------------------------------------------------

core::Instance small_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 12;
  cfg.num_posts = 30;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

ResilientClientConfig fast_config() {
  ResilientClientConfig cfg;
  cfg.backoff.initial = 1ms;
  cfg.backoff.max = 5ms;
  return cfg;
}

TEST(ResilientClientTest, PlainCallSolvesAndConnectsLazily) {
  Server server{ServerConfig{}};
  server.start();

  ResilientClient client("127.0.0.1", server.port(), fast_config());
  const auto resp = client.call(Mode::kSolve, small_instance(1));
  EXPECT_EQ(resp.status, RpcStatus::kOk);
  EXPECT_EQ(client.stats().attempts, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().reconnects, 1u);  // the lazy first dial
  EXPECT_TRUE(client.healthy());
  server.stop();
}

TEST(ResilientClientTest, DisconnectRedialsOnTheNextCall) {
  Server server{ServerConfig{}};
  server.start();

  ResilientClient client("127.0.0.1", server.port(), fast_config());
  ASSERT_EQ(client.call(Mode::kCount, small_instance(2)).status, RpcStatus::kOk);
  client.disconnect();
  ASSERT_EQ(client.call(Mode::kCount, small_instance(2)).status, RpcStatus::kOk);
  EXPECT_EQ(client.stats().reconnects, 2u);
  EXPECT_EQ(client.stats().retries, 0u);
  server.stop();
}

TEST(ResilientClientTest, DeadServerExhaustsAttemptsThenThrowsTyped) {
  // Grab an ephemeral port with a listener, then close it: connecting
  // there is a deterministic ECONNREFUSED.
  std::uint16_t dead_port;
  {
    Socket listener = Socket::listen_on("127.0.0.1", 0, 1);
    dead_port = listener.local_port();
  }

  auto cfg = fast_config();
  cfg.max_attempts = 3;
  ResilientClient client("127.0.0.1", dead_port, cfg);
  try {
    client.call(Mode::kSolve, small_instance(3));
    FAIL() << "expected NetError";
  } catch (const NetError& e) {
    EXPECT_EQ(e.code(), NetErrc::kConnectFailed);
  }
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_FALSE(client.healthy());
}

TEST(ResilientClientTest, ZeroBudgetDeadlineSynthesizesExpiredResponse) {
  Server server{ServerConfig{}};
  server.start();
  ResilientClient client("127.0.0.1", server.port(), fast_config());
  // A 1 ms budget is gone before (or during) the first attempt completes
  // often enough that the only guaranteed property is: no throw, and the
  // status is either the server's verdict or the synthesized expiry.
  const auto resp = client.call(Mode::kSolve, small_instance(5), 1ms);
  EXPECT_TRUE(resp.status == RpcStatus::kOk || resp.status == RpcStatus::kDeadlineExpired)
      << rpc_status_name(resp.status);
  server.stop();
}

}  // namespace
}  // namespace ncpm::net
