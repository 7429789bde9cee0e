#include "net/resilient_client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace ncpm::net {

namespace {

std::uint64_t xorshift_next(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dULL;
}

ResponseFrame synthesized_deadline_expired() {
  ResponseFrame resp;
  resp.status = RpcStatus::kDeadlineExpired;
  resp.error = "deadline expired before any attempt succeeded";
  return resp;
}

}  // namespace

std::chrono::milliseconds backoff_with_jitter(const BackoffPolicy& policy, int attempt,
                                              std::uint64_t& rng_state) {
  if (rng_state == 0) rng_state = 0x9e3779b97f4a7c15ULL;
  double ceiling = static_cast<double>(policy.initial.count());
  for (int i = 0; i < attempt; ++i) {
    ceiling *= policy.multiplier;
    if (ceiling >= static_cast<double>(policy.max.count())) break;
  }
  const auto bound = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(policy.max.count()),
      static_cast<std::uint64_t>(ceiling < 0 ? 0 : ceiling));
  if (bound == 0) return std::chrono::milliseconds(0);
  return std::chrono::milliseconds(xorshift_next(rng_state) % (bound + 1));
}

bool rpc_status_retryable(RpcStatus status) noexcept {
  return status == RpcStatus::kOverloaded || status == RpcStatus::kRejected ||
         status == RpcStatus::kMalformedFrame;
}

// ---------------------------------------------------------------------------
// ResilientClient
// ---------------------------------------------------------------------------

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 ResilientClientConfig config)
    : host_(std::move(host)),
      port_(port),
      config_(config),
      jitter_state_(config.jitter_seed == 0 ? 1 : config.jitter_seed) {
  if (config_.max_attempts < 1) config_.max_attempts = 1;
}

ResilientClient::Attempt ResilientClient::attempt_once(engine::Mode mode,
                                                       const core::Instance& inst,
                                                       std::uint64_t server_deadline_ns,
                                                       std::chrono::milliseconds recv_budget) {
  Attempt out;
  try {
    if (!conn_) {
      conn_.emplace(Client::connect(host_, port_, config_.client));
      ++stats_.reconnects;
    }
    // Tighten the response wait to the remaining budget so a stalled server
    // cannot eat more of the deadline than the deadline has left.
    if (recv_budget.count() > 0 && (config_.client.recv_timeout.count() == 0 ||
                                    recv_budget < config_.client.recv_timeout)) {
      conn_->socket().set_recv_timeout(recv_budget);
    }
    out.response = conn_->call(mode, inst, server_deadline_ns);
  } catch (const NetError& e) {
    out.transport_error = e.code();
    out.error = e.what();
    conn_.reset();  // the stream is unusable; the next attempt redials
  } catch (const std::exception& e) {
    out.transport_error = NetErrc::kIo;
    out.error = e.what();
    conn_.reset();
  }
  return out;
}

ResponseFrame ResilientClient::call(engine::Mode mode, const core::Instance& inst,
                                    std::chrono::milliseconds deadline) {
  const auto started = std::chrono::steady_clock::now();
  const bool bounded = deadline.count() > 0;
  auto remaining_ms = [&]() -> std::chrono::milliseconds {
    if (!bounded) return std::chrono::milliseconds(0);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    return deadline > elapsed ? deadline - elapsed : std::chrono::milliseconds(-1);
  };

  Attempt last;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    const auto budget = remaining_ms();
    if (bounded && budget.count() <= 0) return synthesized_deadline_expired();
    if (attempt > 0) ++stats_.retries;

    const auto server_deadline_ns =
        bounded ? static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(budget).count())
                : 0;
    last = attempt_once(mode, inst, server_deadline_ns, budget);
    ++stats_.attempts;
    if (last.response.has_value() && !rpc_status_retryable(last.response->status)) {
      return std::move(*last.response);
    }

    if (attempt + 1 >= config_.max_attempts) break;
    auto pause = backoff_with_jitter(config_.backoff, attempt, jitter_state_);
    if (bounded) pause = std::min(pause, remaining_ms());
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  }

  // Out of attempts: a retryable response is still a response; a transport
  // failure surfaces as the typed NetError of the final attempt.
  if (last.response.has_value()) return std::move(*last.response);
  if (bounded && remaining_ms().count() <= 0) return synthesized_deadline_expired();
  throw NetError(last.transport_error.value_or(NetErrc::kIo),
                 "all " + std::to_string(config_.max_attempts) + " attempts failed; last: " +
                     last.error);
}

StatsReply ResilientClient::scrape_stats(bool include_traces) {
  NetErrc last_code = NetErrc::kIo;
  std::string last_error;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      const auto pause = backoff_with_jitter(config_.backoff, attempt - 1, jitter_state_);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    ++stats_.attempts;
    try {
      if (!conn_) {
        conn_.emplace(Client::connect(host_, port_, config_.client));
        ++stats_.reconnects;
      }
      return conn_->stats(include_traces);
    } catch (const NetError& e) {
      last_code = e.code();
      last_error = e.what();
      conn_.reset();  // the stream is unusable; the next attempt redials
    } catch (const std::exception& e) {
      last_code = NetErrc::kIo;
      last_error = e.what();
      conn_.reset();
    }
  }
  throw NetError(last_code, "stats scrape failed after " + std::to_string(config_.max_attempts) +
                                " attempts; last: " + last_error);
}

bool ResilientClient::healthy() noexcept {
  try {
    if (!conn_) {
      conn_.emplace(Client::connect(host_, port_, config_.client));
      ++stats_.reconnects;
    }
    conn_->ping();
    return true;
  } catch (const std::exception&) {
    conn_.reset();
    return false;
  }
}

}  // namespace ncpm::net
