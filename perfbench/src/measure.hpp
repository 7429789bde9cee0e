#pragma once
// Samples, run segments, percentiles, spans and metric output shared by the
// served (rpc) and in-process (engine) workload runs.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "obs/profiler.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One part of the measured window. A closed segment keeps a fixed number of
/// requests in flight; an open one sends at `rate_rps` on a fixed schedule
/// whatever the replies do.
struct Segment {
  enum class Kind : std::uint8_t { kClosed, kOpen };
  enum Tag : std::uint8_t { kClosedTag = 0, kOpenLo = 1, kOpenHi = 2 };
  Kind kind = Kind::kClosed;
  Tag tag = kClosedTag;
  double rate_rps = 0;
  double seconds = 0;
  bool traced = false;
};

/// Untraced: one closed segment. Traced: a closed half that alternates
/// untraced and traced slices (for the overhead figure), then open_lo and
/// open_hi quarters, traced.
std::vector<Segment> plan_segments(double seconds, bool trace, double lo_rps, double hi_rps);

enum class Outcome : std::uint8_t { kOk = 0, kNoSolution, kFailed };

/// One request. Times are steady-clock nanoseconds; t_sched is when it was
/// due (closed loop: when it was submitted), t_sent when the client finished
/// handing it over, t_done when its reply arrived.
struct Sample {
  std::uint32_t slot = 0;
  std::uint16_t segment = 0;
  Outcome outcome = Outcome::kFailed;
  std::uint64_t t_sched = 0;
  std::uint64_t t_sent = 0;
  std::uint64_t t_done = 0;
  std::uint64_t queue_ns = 0;  ///< engine queue time (server-reported over rpc)
  std::uint64_t solve_ns = 0;  ///< engine solve time
  std::uint64_t hash = 0;      ///< hash of the output, checked after the window
  std::uint32_t req_bytes = 0;
  std::uint32_t resp_bytes = 0;
};

/// Spans recorded by the benchmark's own code around each call into a layer.
/// Spans of one request share its id; `parent` is 0 for a root span.
struct Span {
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
  std::uint64_t id = 0;
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

class Tracer {
 public:
  bool on = false;
  /// Records a span when tracing is on and returns its id (0 when off).
  std::uint64_t span(std::uint64_t request, std::uint64_t parent, const char* name,
                     std::uint64_t start, std::uint64_t end);
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Writes up to `cap` spans as CSV; returns false when the file cannot be
/// opened.
bool write_spans(const std::string& path, const std::vector<Span>& spans, std::size_t cap);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Peak-RSS helpers over /proc: reset the high-water mark, read it in MB.
bool reset_peak_rss(pid_t pid);
double peak_rss_mb(pid_t pid);

/// Per-request solver-phase totals (obs::Phase order) plus the solve time
/// they are measured against.
struct PhaseTotals {
  std::array<double, ncpm::obs::kNumPhases> ns{};
  double solve_ns = 0;
  double requests = 0;
};

/// When a segment actually ran: requests were sent in [start, end).
struct Window {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  double seconds() const { return static_cast<double>(end - start) / 1e9; }
};

/// How a segment is cut into sub-windows: each holds at least `min_size`
/// requests and a whole number of `granule`s (the workload's fixed cycle,
/// so every sub-window carries the same request mix).
struct Chunking {
  std::size_t granule = 1;
  std::size_t min_size = 1000;
};

/// One segment's figures, robust to a transient stall of the host: the
/// requests, in the order they were sent, are cut into k sub-windows (k = samples /
/// min_size, clamped to 1..10), each statistic is taken per sub-window, and
/// the median over the sub-windows is reported.
struct SubWindowStats {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double rps = 0;
  std::size_t samples = 0;
  std::size_t sub_windows = 0;
};
SubWindowStats sub_window_stats(const std::vector<Sample>& samples, std::size_t segment,
                                const Window& window, const Chunking& chunking);

/// End-to-end metrics of an untraced run (one closed segment).
Metrics end_to_end(const std::vector<Sample>& samples, const Window& window,
                   const Chunking& chunking, const std::vector<double>& setup_s, double rss_mb);

/// Per-layer metrics read off the samples of a traced run: the closed-loop
/// p99 and the open-loop figures (too noisy on a shared host to gate on),
/// net, engine and per-mode solve figures, ops counts, and the tracing
/// overhead.
Metrics sample_layers(const std::vector<Sample>& samples, const std::vector<Segment>& segments,
                      const std::vector<Window>& windows, const Chunking& chunking,
                      const std::vector<std::uint8_t>& slot_modes, int workers, bool in_process);

/// phase.<name>_ms (mean per request) and phase.unattributed_frac.
Metrics phase_metrics(const PhaseTotals& totals);

}  // namespace perfbench
