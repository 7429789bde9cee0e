#include "measure.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "engine/engine.hpp"

namespace perfbench {

namespace {

double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }

bool counts(const Sample& s) { return s.outcome != Outcome::kFailed; }

/// Requests completed inside the windows of the given segments, per second.
double rate(const std::vector<Sample>& samples, const std::vector<Segment>& segments,
            const std::vector<Window>& windows, bool (*pick)(const Segment&)) {
  double seconds = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (pick(segments[i])) seconds += windows[i].seconds();
  }
  double done = 0;
  for (const auto& s : samples) {
    const auto& w = windows[s.segment];
    if (counts(s) && pick(segments[s.segment]) && s.t_done >= w.start && s.t_done < w.end) {
      done += 1;
    }
  }
  return seconds > 0 ? done / seconds : 0;
}

}  // namespace

std::vector<Segment> plan_segments(double seconds, bool trace, double lo_rps, double hi_rps) {
  if (!trace) return {{Segment::Kind::kClosed, Segment::kClosedTag, 0, seconds, false}};
  std::vector<Segment> plan;
  for (int i = 0; i < 4; ++i) {
    plan.push_back({Segment::Kind::kClosed, Segment::kClosedTag, 0, seconds / 8, i % 2 == 1});
  }
  plan.push_back({Segment::Kind::kOpen, Segment::kOpenLo, lo_rps, seconds / 4, true});
  plan.push_back({Segment::Kind::kOpen, Segment::kOpenHi, hi_rps, seconds / 4, true});
  return plan;
}

std::uint64_t Tracer::span(std::uint64_t request, std::uint64_t parent, const char* name,
                           std::uint64_t start, std::uint64_t end) {
  if (!on) return 0;
  const auto id = next_id_++;
  spans_.push_back({request, parent, id, name, start, end});
  return id;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans, std::size_t cap) {
  std::ofstream out(path);
  if (!out) return false;
  out << "request,parent,id,name,start_ns,end_ns\n";
  const auto n = std::min(cap, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = spans[i];
    out << s.request << ',' << s.parent << ',' << s.id << ',' << s.name << ',' << s.start << ','
        << s.end << '\n';
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

bool reset_peak_rss(pid_t pid) {
  // "5" resets the peak resident set size (VmHWM) to the current RSS.
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

SubWindowStats sub_window_stats(const std::vector<Sample>& samples, std::size_t segment,
                                const Window& window, const Chunking& chunking) {
  std::vector<const Sample*> mine;
  for (const auto& s : samples) {
    if (s.segment == segment) mine.push_back(&s);
  }
  std::sort(mine.begin(), mine.end(),
            [](const Sample* a, const Sample* b) { return a->t_sched < b->t_sched; });
  const std::size_t n = mine.size();
  const std::size_t k = std::clamp<std::size_t>(n / std::max<std::size_t>(chunking.min_size, 1), 1, 10);
  std::size_t size = n / k;
  if (size >= chunking.granule) size -= size % chunking.granule;
  std::vector<double> p50, p90, p99, rps;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = i * size;
    const std::size_t hi = i + 1 == k ? n : lo + size;
    std::vector<double> latency;
    for (std::size_t j = lo; j < hi; ++j) {
      if (counts(*mine[j])) latency.push_back(static_cast<double>(mine[j]->t_done - mine[j]->t_sched));
    }
    // A chunk lasts from its first send to the next chunk's first send.
    const auto t0 = i == 0 ? window.start : mine[lo]->t_sched;
    const auto t1 = hi == n ? window.end : mine[hi]->t_sched;
    p50.push_back(quantile(latency, 0.50));
    p90.push_back(quantile(latency, 0.90));
    p99.push_back(quantile(latency, 0.99));
    rps.push_back(t1 > t0 ? static_cast<double>(latency.size()) * 1e9 / static_cast<double>(t1 - t0)
                          : 0.0);
  }
  return {median(p50), median(p90), median(p99), median(rps), n, k};
}

Metrics end_to_end(const std::vector<Sample>& samples, const Window& window,
                   const Chunking& chunking, const std::vector<double>& setup_s, double rss_mb) {
  const auto closed = sub_window_stats(samples, 0, window, chunking);
  return {
      {"setup_s", median(setup_s), "s"},
      {"throughput_rps", closed.rps, "1/s"},
      {"latency_p50_ms", ms(closed.p50), "ms"},
      {"latency_p90_ms", ms(closed.p90), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

Metrics sample_layers(const std::vector<Sample>& samples, const std::vector<Segment>& segments,
                      const std::vector<Window>& windows, const Chunking& chunking,
                      const std::vector<std::uint8_t>& slot_modes, int workers, bool in_process) {
  using ncpm::engine::Mode;
  std::vector<double> closed_latency, wire, queue, dispatch, late, req_bytes, resp_bytes;
  std::vector<double> solve_by_mode[ncpm::engine::kNumModes];
  double busy_ns = 0;
  double ok = 0, no_solution = 0, failed = 0;
  for (const auto& s : samples) {
    if (s.outcome == Outcome::kOk) ok += 1;
    if (s.outcome == Outcome::kNoSolution) no_solution += 1;
    if (s.outcome == Outcome::kFailed) failed += 1;
    const auto& seg = segments[s.segment];
    if (!seg.traced || !counts(s)) continue;
    const double rtt = static_cast<double>(s.t_done - s.t_sent);
    const double queue_solve = static_cast<double>(s.queue_ns + s.solve_ns);
    solve_by_mode[slot_modes[s.slot]].push_back(static_cast<double>(s.solve_ns));
    if (seg.kind == Segment::Kind::kOpen) {
      late.push_back(static_cast<double>(s.t_sent - s.t_sched));
      continue;
    }
    queue.push_back(static_cast<double>(s.queue_ns));
    busy_ns += static_cast<double>(s.solve_ns);
    closed_latency.push_back(static_cast<double>(s.t_done - s.t_sched));
    if (in_process) {  // submit -> ready, less the solve
      dispatch.push_back(static_cast<double>(s.t_done - s.t_sched - s.solve_ns));
    } else {
      wire.push_back(rtt - queue_solve);
      req_bytes.push_back(s.req_bytes);
      resp_bytes.push_back(s.resp_bytes);
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const auto x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  // Busy time is set against each traced closed segment from its start to
  // its last reply, so solves that finish during the drain are covered.
  std::vector<std::uint64_t> last_done(segments.size(), 0);
  for (const auto& s : samples) {
    last_done[s.segment] = std::max(last_done[s.segment], s.t_done);
  }
  double traced_closed_s = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].traced && segments[i].kind == Segment::Kind::kClosed &&
        last_done[i] > windows[i].start) {
      traced_closed_s += static_cast<double>(last_done[i] - windows[i].start) / 1e9;
    }
  }
  const double untraced_rps = rate(samples, segments, windows, [](const Segment& s) {
    return s.kind == Segment::Kind::kClosed && !s.traced;
  });
  const double traced_rps = rate(samples, segments, windows, [](const Segment& s) {
    return s.kind == Segment::Kind::kClosed && s.traced;
  });
  SubWindowStats open[3];
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].kind == Segment::Kind::kOpen) {
      open[segments[i].tag] = sub_window_stats(samples, i, windows[i], chunking);
    }
  }
  Metrics m = {
      {"latency_p99_ms", ms(quantile(closed_latency, 0.99)), "ms"},
      {"open_lo.p50_ms", ms(open[Segment::kOpenLo].p50), "ms"},
      {"open_lo.p99_ms", ms(open[Segment::kOpenLo].p99), "ms"},
      {"open_hi.p50_ms", ms(open[Segment::kOpenHi].p50), "ms"},
      {"open_hi.p99_ms", ms(open[Segment::kOpenHi].p99), "ms"},
      {"net.wire_us.p50", us(quantile(wire, 0.50)), "us"},
      {"net.wire_us.p99", us(quantile(wire, 0.99)), "us"},
      {"net.req_bytes.mean", mean(req_bytes), "bytes"},
      {"net.resp_bytes.mean", mean(resp_bytes), "bytes"},
      {"net.gen_late_us.p99", us(quantile(late, 0.99)), "us"},
      {"engine.queue_us.p50", us(quantile(queue, 0.50)), "us"},
      {"engine.queue_us.p99", us(quantile(queue, 0.99)), "us"},
      {"engine.dispatch_us.p50", us(quantile(dispatch, 0.50)), "us"},
      {"engine.busy_frac",
       traced_closed_s > 0 ? busy_ns / 1e9 / (traced_closed_s * workers) : 0.0, "fraction"},
  };
  for (const auto mode : {Mode::kSolve, Mode::kMaxCard, Mode::kFair, Mode::kRankMaximal,
                          Mode::kCount, Mode::kCheck}) {
    m.push_back({"core.solve_ms." + std::string(ncpm::engine::mode_name(mode)) + ".p50",
                 ms(median(solve_by_mode[static_cast<std::size_t>(mode)])), "ms"});
  }
  m.push_back({"ops.attempted", ok + no_solution + failed, "count"});
  m.push_back({"ops.ok", ok, "count"});
  m.push_back({"ops.no_solution", no_solution, "count"});
  m.push_back({"ops.failed", failed, "count"});
  m.push_back({"trace.overhead_frac", untraced_rps > 0 ? 1.0 - traced_rps / untraced_rps : 0.0,
               "fraction"});
  return m;
}

Metrics phase_metrics(const PhaseTotals& totals) {
  Metrics m;
  double attributed = 0;
  for (std::size_t i = 0; i < ncpm::obs::kNumPhases; ++i) {
    // Wire decode happens before the solve window, so it is not part of it.
    if (i != static_cast<std::size_t>(ncpm::obs::Phase::kDecode)) attributed += totals.ns[i];
    m.push_back({std::string("phase.") + ncpm::obs::phase_name(i) + "_ms",
                 totals.requests > 0 ? ms(totals.ns[i] / totals.requests) : 0.0, "ms"});
  }
  m.push_back({"phase.unattributed_frac",
               totals.solve_ns > 0 ? 1.0 - attributed / totals.solve_ns : 0.0, "fraction"});
  return m;
}

}  // namespace perfbench
