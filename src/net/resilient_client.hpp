#pragma once
// Fault-tolerant ncpm-rpc v1 client: a net::Client wrapped in the one retry
// discipline the chaos suite demands of any production caller.
//
//  - Reconnect: a broken connection (reset, timeout, protocol desync) is
//    dropped and redialled on the next attempt — solves are idempotent, so
//    resending a request whose response was lost is always safe.
//  - Full-jitter backoff: exponential backoff with full jitter
//    (backoff_with_jitter below) between attempts, up to max_attempts.
//  - Whole-call deadline: every sleep and every response wait is capped at
//    the caller's remaining budget; when the budget is gone the client
//    synthesises a kDeadlineExpired response instead of throwing.
//
// Like Client, a ResilientClient is single-threaded by design — one per
// caller thread — and starts no threads of its own.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/instance.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"

namespace ncpm::net {

struct BackoffPolicy {
  std::chrono::milliseconds initial{50};
  std::chrono::milliseconds max{2000};
  double multiplier = 2.0;
};

/// Full-jitter exponential backoff (AWS architecture-blog flavour): a
/// uniform draw from [0, min(max, initial * multiplier^attempt)]. Pure —
/// `rng_state` is the caller's xorshift64* state, advanced in place — so
/// the jitter bounds are unit-testable without sleeping.
std::chrono::milliseconds backoff_with_jitter(const BackoffPolicy& policy, int attempt,
                                              std::uint64_t& rng_state);

struct ResilientClientConfig {
  ClientConfig client{};
  /// Attempts per call (first try included). The loop also stops early
  /// when the deadline budget runs out.
  int max_attempts = 4;
  BackoffPolicy backoff{};
  /// Seed for the jitter stream (deterministic backoff schedules in tests).
  std::uint64_t jitter_seed = 0x243f6a8885a308d3ULL;
};

struct ResilientClientStats {
  std::uint64_t attempts = 0;    ///< individual wire attempts
  std::uint64_t retries = 0;     ///< attempts beyond the first, per call
  std::uint64_t reconnects = 0;  ///< fresh dials after a broken connection
};

class ResilientClient {
 public:
  /// Does not dial: the first call connects (and reconnects thereafter as
  /// needed), so constructing against a temporarily-down server is fine.
  ResilientClient(std::string host, std::uint16_t port, ResilientClientConfig config = {});

  /// One request with the full resilience discipline. `deadline` bounds
  /// the whole call — attempts and backoffs included; zero means no bound
  /// (retries still stop at max_attempts). Throws the final transport
  /// error when every attempt failed; returns the server's response (or a
  /// synthesised kDeadlineExpired one) otherwise.
  ResponseFrame call(engine::Mode mode, const core::Instance& inst,
                     std::chrono::milliseconds deadline = std::chrono::milliseconds(0));

  /// Liveness probe: pings over the current (or a fresh) connection.
  /// Never throws; false means the endpoint is unreachable right now.
  bool healthy() noexcept;

  /// One metrics scrape (Client::stats) with reconnect-and-retry: a broken
  /// connection is redialled and the scrape retried with the usual backoff
  /// up to max_attempts. Throws the final attempt's NetError when every
  /// attempt failed (the caller's watch loop decides whether to keep
  /// waiting).
  StatsReply scrape_stats(bool include_traces = false);

  /// Drop the current connection (the next call redials).
  void disconnect() noexcept { conn_.reset(); }

  const ResilientClientStats& stats() const noexcept { return stats_; }

 private:
  struct Attempt {
    std::optional<ResponseFrame> response;  ///< set when the wire answered
    std::optional<NetErrc> transport_error;
    std::string error;
  };

  /// One wire attempt on conn_ (dialling it first if empty).
  Attempt attempt_once(engine::Mode mode, const core::Instance& inst,
                       std::uint64_t server_deadline_ns, std::chrono::milliseconds recv_budget);

  std::string host_;
  std::uint16_t port_;
  ResilientClientConfig config_;
  std::optional<Client> conn_;
  std::uint64_t jitter_state_;
  ResilientClientStats stats_;
};

/// Is this wire status worth retrying? kOverloaded (admission shed — the
/// server asked for backoff), kRejected (it was shutting down; another
/// instance, or it, may be back) and kMalformedFrame (the *request* was
/// corrupted in flight; resending sends fresh bytes) are; everything else
/// is a definitive answer.
bool rpc_status_retryable(RpcStatus status) noexcept;

}  // namespace ncpm::net
