#pragma once
// obs::TraceRing — sampled per-request trace spans in a fixed ring buffer.
//
// Every Nth request (sample_every) gets a TraceSpan recording the serving
// milestones as steady-clock nanosecond timestamps. The span is committed
// whole at request completion: the writer picks a slot with one fetch_add,
// claims it by moving its sequence from even to odd (compare-exchange), and
// publishes by making it even again. snapshot() never blocks writers; a slot
// caught mid-write is skipped. All slot fields are atomics, so concurrent
// scrape + commit is data-race-free.
//
// This is best-effort flight-recorder telemetry: under extreme wrap rates a
// writer that finds its slot still claimed by a slower one drops its span,
// and a slot overwritten while read is dropped from that scrape.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.hpp"

namespace ncpm::obs {

/// Milestones for one sampled request. Timestamps are steady-clock
/// nanoseconds (an arbitrary epoch: deltas are meaningful, wall time is
/// not); 0 means "not reached" (e.g. a shed request has no solve window).
struct TraceSpan {
  std::uint64_t request_id = 0;
  std::uint64_t conn_id = 0;
  std::uint8_t mode = 0;       ///< engine::Mode raw value (0xff = unknown)
  std::uint8_t status = 0;     ///< net::RpcStatus raw value
  std::uint64_t accept_ns = 0;      ///< connection accepted
  std::uint64_t frame_read_ns = 0;  ///< request frame fully read
  std::uint64_t dispatch_ns = 0;    ///< handed to (or rejected by) the engine
  std::uint64_t solve_start_ns = 0; ///< worker began the solve
  std::uint64_t solve_end_ns = 0;   ///< worker finished the solve
  std::uint64_t response_ns = 0;    ///< response frame handed to the writer
  std::uint64_t instance_digest = 0; ///< FNV-1a 64 over the payload bytes
  std::uint32_t payload_bytes = 0;   ///< request payload size on the wire
  /// Per-phase solver breakdown (obs::Phase index -> exclusive ns); all
  /// zero when the engine ran with profiling off or the request was shed.
  std::array<std::uint64_t, kNumPhases> phase_ns{};
};

class TraceRing {
 public:
  /// capacity == 0 or sample_every == 0 disables tracing entirely.
  explicit TraceRing(std::size_t capacity = 0, std::uint64_t sample_every = 0);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  bool enabled() const noexcept { return sample_every_ > 0 && capacity_ > 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// True for every sample_every-th call; the caller then records a span and
  /// commits it. Callable from any thread; always false when disabled.
  bool should_sample() noexcept;

  /// Publishes one completed span into the ring.
  void commit(const TraceSpan& span) noexcept;

  /// Total commit() calls on the enabled ring, including spans dropped
  /// because their slot was still claimed by a slower writer.
  std::uint64_t committed() const noexcept {
    return commits_.load(std::memory_order_relaxed);
  }

  /// Copies out every fully-committed span currently in the ring (slot
  /// order, unspecified age order). Safe concurrently with commit().
  std::vector<TraceSpan> snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  ///< 0 = never written; odd = writing
    std::atomic<std::uint64_t> request_id{0};
    std::atomic<std::uint64_t> conn_id{0};
    std::atomic<std::uint64_t> mode_status{0};  ///< mode << 8 | status
    std::atomic<std::uint64_t> accept_ns{0};
    std::atomic<std::uint64_t> frame_read_ns{0};
    std::atomic<std::uint64_t> dispatch_ns{0};
    std::atomic<std::uint64_t> solve_start_ns{0};
    std::atomic<std::uint64_t> solve_end_ns{0};
    std::atomic<std::uint64_t> response_ns{0};
    std::atomic<std::uint64_t> instance_digest{0};
    std::atomic<std::uint64_t> payload_bytes{0};
    std::array<std::atomic<std::uint64_t>, kNumPhases> phase_ns{};
  };

  std::size_t capacity_;
  std::uint64_t sample_every_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<std::uint64_t> commits_{0};
};

/// JSON array of spans (for `ncpm_cli stats --format json --traces`).
std::string render_spans_json(const std::vector<TraceSpan>& spans);

}  // namespace ncpm::obs
