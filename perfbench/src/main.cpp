// ncpm_perfbench — the repository benchmark's harness.
//
//   ncpm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --cli PATH [--out-dir DIR] [--commit SHA] [--dirty 0|1]
//
// Builds the named workload from the seed, computes every reference output
// on a 1-lane executor, runs the measured window (closed loop, then open
// loop at two fixed rates), checks every output, and prints one JSON line:
// the end-to-end metrics untraced, the per-layer metrics traced. Exit 0
// only when every output passed the correctness gate.

#include <algorithm>
#include <barrier>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "engine/engine.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "net/client.hpp"
#include "obs/registry.hpp"
#include "rpc_load.hpp"
#include "workload.hpp"

#ifndef NCPM_PERFBENCH_BUILD_TYPE
#define NCPM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ncpm::engine::Mode;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string cli;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

/// Fixed open-loop rates per workload, about 1/3 and 2/3 of the closed-loop
/// throughput on an idle reference host (README.md), and how many times
/// set-up is repeated.
struct Profile {
  double open_lo_rps;
  double open_hi_rps;
  int setup_reps;
};

Profile profile_of(const std::string& workload) {
  if (workload == "rpc-small") return {2000, 4000, 9};
  if (workload == "solve-large") return {2, 4, 9};
  return {5, 10, 9};  // modes-mid
}

int nproc() {
  const auto n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// What a workload run hands back: all samples, the first output per slot for
/// the gate, and the figures only it can measure.
struct Run {
  std::vector<Segment> segments;
  std::vector<Window> windows;
  std::vector<Sample> samples;
  std::vector<std::string> first_output;  ///< canonical, per slot
  std::vector<std::uint64_t> first_hash;  ///< the hash samples of that slot must carry
  std::vector<double> setup_s;
  double rss_mb = 0;
  int workers = 1;
  PhaseTotals phases;
  double ws_allocs = 0;  ///< workspace growths over the window (in-process only)
  Chunking chunking;
  std::vector<Span> spans;
};

/// One slot per mode the workload serves, on its smallest instance.
std::vector<std::size_t> warm_slots(const Workload& w) {
  std::map<Mode, std::size_t> best;
  const auto size_of = [&](std::size_t slot) {
    const auto& s = w.slots[slot];
    return s.mode == Mode::kNextStable ? w.stable_instances[s.instance].size()
                                       : w.instances[s.instance].num_applicants();
  };
  for (std::size_t i = 0; i < w.slots.size(); ++i) {
    const auto it = best.find(w.slots[i].mode);
    if (it == best.end() || size_of(i) < size_of(it->second)) best[w.slots[i].mode] = i;
  }
  std::vector<std::size_t> out;
  for (const auto& [mode, slot] : best) out.push_back(slot);
  return out;
}

// ---------------------------------------------------------------------------
// rpc-small: `ncpm_cli serve` over loopback

PhaseTotals scrape_phases(ncpm::net::Client& stats_client) {
  PhaseTotals t;
  const auto reply = stats_client.stats();
  for (const auto& h : reply.snapshot.histograms) {
    if (h.name == "ncpm_engine_solve_ns") {
      t.solve_ns += static_cast<double>(h.sum);
      t.requests += static_cast<double>(h.count);
    } else if (h.name == "ncpm_solve_phase_ns") {
      for (const auto& [key, value] : h.labels) {
        if (key != "phase") continue;
        for (std::size_t i = 0; i < ncpm::obs::kNumPhases; ++i) {
          if (value == ncpm::obs::phase_name(i)) t.ns[i] += static_cast<double>(h.sum);
        }
      }
    }
  }
  return t;
}

Run run_rpc(const Workload& w, const Options& o) {
  Run run;
  const auto prof = profile_of(w.name);
  const auto frames = encode_frames(w);
  const std::string log = o.out_dir + "/server-" + w.name + ".log";
  std::vector<ncpm::net::RpcCall> warm;
  for (const auto slot : warm_slots(w)) {
    warm.push_back({w.slots[slot].mode, w.instances[w.slots[slot].instance], 0});
  }
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < prof.setup_reps; ++r) {
    server.reset();
    const auto t0 = now_ns();
    server = std::make_unique<ServerProcess>(o.cli, log);
    auto client = ncpm::net::Client::connect("127.0.0.1", server->port());
    for (const auto& resp : client.call_batch(warm)) {
      if (resp.status != ncpm::net::RpcStatus::kOk &&
          resp.status != ncpm::net::RpcStatus::kNoSolution) {
        throw std::runtime_error("warm-up request failed: " + resp.error);
      }
    }
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.workers = server->workers();
  reset_peak_rss(server->pid());
  auto stats_client = ncpm::net::Client::connect("127.0.0.1", server->port());
  const auto before = scrape_phases(stats_client);

  const int conns = std::max(1, nproc() / 2);
  constexpr std::size_t kWindow = 8;
  constexpr std::uint64_t kDrainNs = 10'000'000'000ULL;
  run.segments = plan_segments(o.seconds, o.trace, prof.open_lo_rps, prof.open_hi_rps);
  run.windows.resize(run.segments.size());
  std::vector<std::unique_ptr<RpcConnection>> connections;
  for (int c = 0; c < conns; ++c) {
    connections.push_back(std::make_unique<RpcConnection>(
        "127.0.0.1", server->port(), w, frames, c * w.sequence.size() / conns,
        static_cast<std::uint64_t>(c + 1) << 40));
  }
  // Every connection starts segment s together, once all finished s - 1.
  std::size_t next_segment = 0;
  std::uint64_t start = 0;
  std::barrier sync(conns, [&]() noexcept {
    start = now_ns() + 2'000'000;
    auto& win = run.windows[next_segment];
    win.start = start;
    win.end = start + static_cast<std::uint64_t>(run.segments[next_segment].seconds * 1e9);
    ++next_segment;
  });
  std::vector<Tracer> tracers(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t s = 0; s < run.segments.size(); ++s) {
        sync.arrive_and_wait();
        const auto& seg = run.segments[s];
        const double share = seg.rate_rps / conns;
        // Connections interleave their open-loop sends evenly.
        const auto phase = share > 0 ? static_cast<std::uint64_t>(1e9 / seg.rate_rps * c) : 0;
        connections[static_cast<std::size_t>(c)]->run(seg, static_cast<std::uint16_t>(s), start,
                                                      share, phase, kWindow, kDrainNs,
                                                      tracers[static_cast<std::size_t>(c)]);
      }
    });
  }
  for (auto& t : threads) t.join();
  run.rss_mb = peak_rss_mb(server->pid());
  const auto after = scrape_phases(stats_client);
  for (std::size_t i = 0; i < ncpm::obs::kNumPhases; ++i) {
    run.phases.ns[i] = after.ns[i] - before.ns[i];
  }
  run.phases.solve_ns = after.solve_ns - before.solve_ns;
  run.phases.requests = after.requests - before.requests;
  stats_client.close();

  // The first reply per slot is decoded only now, outside the window.
  run.first_output.resize(w.slots.size());
  run.first_hash.resize(w.slots.size());
  for (auto& conn : connections) {
    const auto& bodies = conn->first_bodies();
    for (std::size_t slot = 0; slot < bodies.size(); ++slot) {
      if (bodies[slot].empty() || !run.first_output[slot].empty()) continue;
      const auto* body = reinterpret_cast<const std::uint8_t*>(bodies[slot].data());
      try {
        run.first_output[slot] =
            canonical(ncpm::net::decode_response_frame(body, bodies[slot].size())).value_or("");
      } catch (const std::exception&) {
        run.first_output[slot].clear();
      }
      run.first_hash[slot] = response_hash(body, bodies[slot].size());
    }
    auto& samples = conn->samples();
    run.samples.insert(run.samples.end(), samples.begin(), samples.end());
  }
  for (auto& t : tracers) run.spans.insert(run.spans.end(), t.spans().begin(), t.spans().end());
  connections.clear();
  if (!server->stop()) std::fprintf(stderr, "perfbench: server did not drain cleanly\n");
  return run;
}

// ---------------------------------------------------------------------------
// solve-large and modes-mid: an in-process engine

class EngineLoad {
 public:
  EngineLoad(ncpm::engine::Engine& engine, const Workload& w, Run& run)
      : engine_(engine), w_(w), run_(run) {
    run_.first_output.resize(w.slots.size());
    run_.first_hash.resize(w.slots.size());
  }

  /// Builds the next request of the sequence (copying its instance).
  std::pair<std::size_t, ncpm::engine::Request> next() {
    const std::size_t slot = w_.sequence[cursor_++ % w_.sequence.size()];
    return {slot, make_request(w_, slot)};
  }

  void submit(std::uint16_t segment, std::size_t slot, ncpm::engine::Request req,
              std::uint64_t t_sched) {
    const std::size_t index = run_.samples.size();
    Sample s;
    s.slot = static_cast<std::uint32_t>(slot);
    s.segment = segment;
    s.t_sched = t_sched;
    run_.samples.push_back(s);
    ++in_flight_;
    engine_.submit(std::move(req), [this, index](ncpm::engine::Result r) {
      const auto t = now_ns();
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_.push_back({index, t, std::move(r)});
      }
      cv_.notify_one();
    });
    run_.samples[index].t_sent = now_ns();
  }

  /// Handles one completion; false when none arrived before `deadline`.
  bool complete_one(std::uint64_t deadline) {
    Done d;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto tp = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline));
      if (!cv_.wait_until(lock, tp, [&] { return !done_.empty(); })) return false;
      d = std::move(done_.front());
      done_.pop_front();
    }
    --in_flight_;
    auto& s = run_.samples[d.index];
    s.t_done = d.t_done;
    s.queue_ns = static_cast<std::uint64_t>(d.result.queue_latency.count());
    s.solve_ns = static_cast<std::uint64_t>(d.result.solve_time.count());
    const auto out = canonical(d.result);
    s.outcome = out.empty() ? Outcome::kFailed
                : d.result.status == ncpm::engine::Status::kNoSolution ? Outcome::kNoSolution
                                                                      : Outcome::kOk;
    s.hash = hash_bytes(out);
    if (run_.first_output[s.slot].empty()) {
      run_.first_output[s.slot] = out;
      run_.first_hash[s.slot] = s.hash;
    }
    if (tracer_.on) {
      for (std::size_t i = 0; i < ncpm::obs::kNumPhases; ++i) {
        run_.phases.ns[i] += static_cast<double>(d.result.phase_ns[i]);
      }
      run_.phases.solve_ns += static_cast<double>(s.solve_ns);
      run_.phases.requests += 1;
      const auto root = tracer_.span(d.index + 1, 0, "engine.request", s.t_sched, s.t_done);
      tracer_.span(d.index + 1, root, "engine.submit", s.t_sched, s.t_sent);
      tracer_.span(d.index + 1, root, "engine.queue", s.t_sent, s.t_sent + s.queue_ns);
      tracer_.span(d.index + 1, root, "engine.solve", s.t_done - s.solve_ns, s.t_done);
    }
    return true;
  }

  void run_segment(std::uint16_t index, const Segment& seg, std::size_t depth) {
    const auto start = now_ns();
    const auto end = start + static_cast<std::uint64_t>(seg.seconds * 1e9);
    run_.windows[index] = {start, end};
    tracer_.on = seg.traced;
    // Each segment starts on a cycle boundary of the (fixed) sequence.
    const auto cycle = w_.sequence.size();
    cursor_ = (cursor_ + cycle - 1) / cycle * cycle;
    if (seg.kind == Segment::Kind::kClosed) {
      for (;;) {
        while (in_flight_ < depth && now_ns() < end) {
          auto [slot, req] = next();
          submit(index, slot, std::move(req), now_ns());
        }
        if (in_flight_ == 0) break;
        complete_one(UINT64_MAX / 2);
      }
    } else {
      const auto interval = static_cast<std::uint64_t>(1e9 / seg.rate_rps);
      for (auto due = start; due < end; due += interval) {
        auto [slot, req] = next();  // built ahead of its due time
        while (now_ns() < due) complete_one(due);
        submit(index, slot, std::move(req), due);
      }
      while (in_flight_ > 0) complete_one(UINT64_MAX / 2);
    }
    tracer_.on = false;
  }

  Tracer& tracer() { return tracer_; }

 private:
  struct Done {
    std::size_t index = 0;
    std::uint64_t t_done = 0;
    ncpm::engine::Result result;
  };
  ncpm::engine::Engine& engine_;
  const Workload& w_;
  Run& run_;
  std::size_t cursor_ = 0;
  std::size_t in_flight_ = 0;
  Tracer tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Done> done_;
};

Run run_engine(const Workload& w, const Options& o) {
  Run run;
  const auto prof = profile_of(w.name);
  // solve-large: the `ncpm_cli solve FILE` policy, one request at a time on
  // every lane. modes-mid: the `ncpm_cli batch` policy, nproc x 1 lane.
  const bool large = w.name == "solve-large";
  const auto budget = large ? ncpm::engine::ThreadBudget::single(nproc())
                            : ncpm::engine::ThreadBudget::split(nproc(), nproc());
  const std::size_t depth = large ? 1 : static_cast<std::size_t>(nproc());
  std::unique_ptr<ncpm::engine::Engine> engine;
  for (int r = 0; r < prof.setup_reps; ++r) {
    engine.reset();
    std::vector<ncpm::engine::Request> warm;
    for (const auto slot : warm_slots(w)) warm.push_back(make_request(w, slot));
    const auto t0 = now_ns();
    engine = std::make_unique<ncpm::engine::Engine>(ncpm::engine::EngineConfig(budget));
    for (auto& f : engine->submit_batch(std::move(warm))) {
      const auto res = f.get();
      if (res.status != ncpm::engine::Status::kOk &&
          res.status != ncpm::engine::Status::kNoSolution) {
        throw std::runtime_error("warm-up request failed: " + res.error);
      }
    }
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.workers = engine->num_workers();
  // Sub-windows of whole cycles, two at least, so each has the full mix.
  run.chunking = {w.sequence.size(), 2 * w.sequence.size()};
  reset_peak_rss(::getpid());
  const auto allocs_before = engine->stats().workspace_allocs_total;
  run.segments = plan_segments(o.seconds, o.trace, prof.open_lo_rps, prof.open_hi_rps);
  run.windows.resize(run.segments.size());
  {
    EngineLoad load(*engine, w, run);
    for (std::size_t s = 0; s < run.segments.size(); ++s) {
      load.run_segment(static_cast<std::uint16_t>(s), run.segments[s], depth);
    }
    engine->wait_idle();
    run.spans = std::move(load.tracer().spans());
  }
  run.rss_mb = peak_rss_mb(::getpid());
  run.ws_allocs = static_cast<double>(engine->stats().workspace_allocs_total - allocs_before);
  return run;
}

// ---------------------------------------------------------------------------
// gate, provenance, output

/// Checks the first output of every slot against its reference, then every
/// sample against its slot's first output. Marks failures in place and
/// returns how many samples failed.
std::size_t gate(const Workload& w, const std::vector<Reference>& refs, Run& run) {
  std::vector<std::string> why(w.slots.size());
  for (std::size_t slot = 0; slot < w.slots.size(); ++slot) {
    if (run.first_output[slot].empty()) continue;  // never answered successfully
    why[slot] = check_output(w, slot, refs[slot], run.first_output[slot]);
    if (!why[slot].empty()) {
      std::fprintf(stderr, "perfbench: gate: slot %zu (%s): %s\n", slot,
                   std::string(ncpm::engine::mode_name(w.slots[slot].mode)).c_str(),
                   why[slot].c_str());
    }
  }
  std::size_t failed = 0;
  for (auto& s : run.samples) {
    if (s.outcome != Outcome::kFailed &&
        (!why[s.slot].empty() || s.hash != run.first_hash[s.slot])) {
      s.outcome = Outcome::kFailed;
    }
    if (s.outcome == Outcome::kFailed) ++failed;
  }
  return failed;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

struct CpuTicks {
  double total = 0;
  double steal = 0;
};

/// The aggregate "cpu" line of /proc/stat: all fields summed, and steal.
CpuTicks host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  double v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void print_provenance(const Options& o) {
  // EngineStats names the SIMD tier the solver kernels actually dispatch to.
  const auto simd = ncpm::engine::Engine(ncpm::engine::EngineConfig(1, 1)).stats().simd_tier;
  const std::string build = NCPM_PERFBENCH_BUILD_TYPE;
  std::printf(
      "{\"provenance\": {\"commit\": \"%s\", \"dirty\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %d, \"cpu\": \"%s\", \"simd_tier\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"mode\": \"%s\"}}\n",
      json_escape(o.commit).c_str(), json_escape(o.dirty).c_str(), json_escape(build).c_str(),
      nproc(), json_escape(cpu_model()).c_str(), json_escape(simd).c_str(),
      json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      number(o.seconds).c_str(), o.trace ? "traced" : "untraced");
  if (build != "Release") {
    std::printf("WARNING: ncpm was built as '%s', not Release; timings are not comparable\n",
                build.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + number(m[i].value) + ", \"unit\": \"" +
           m[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Sample counts per segment and the 10-beyond rule, for the reader.
void print_counts(const Workload& w, const Run& run) {
  std::vector<std::size_t> n(run.segments.size(), 0);
  for (const auto& s : run.samples) ++n[s.segment];
  for (std::size_t i = 0; i < n.size(); ++i) {
    const auto& seg = run.segments[i];
    std::fprintf(stderr, "perfbench: segment %zu %s%s: %zu samples in %.2f s, %zu sub-window(s)\n",
                 i,
                 seg.tag == Segment::kClosedTag ? "closed" : seg.tag == Segment::kOpenLo ? "open_lo" : "open_hi",
                 seg.traced ? " (traced)" : "", n[i], run.windows[i].seconds(),
                 sub_window_stats(run.samples, i, run.windows[i], run.chunking).sub_windows);
  }
  if (w.slots.size() > 32) return;
  // Few slots: their solve-time medians show which inputs carry the load.
  std::vector<std::vector<double>> solve_ms(w.slots.size());
  for (const auto& s : run.samples) solve_ms[s.slot].push_back(static_cast<double>(s.solve_ns) / 1e6);
  for (std::size_t slot = 0; slot < w.slots.size(); ++slot) {
    const auto& sl = w.slots[slot];
    std::fprintf(stderr, "perfbench: slot %zu %s n=%d: %zu samples, solve p50 %.2f ms\n", slot,
                 std::string(ncpm::engine::mode_name(sl.mode)).c_str(),
                 sl.mode == Mode::kNextStable ? w.stable_instances[sl.instance].size()
                                              : w.instances[sl.instance].num_applicants(),
                 solve_ms[slot].size(), median(solve_ms[slot]));
  }
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--cli") o.cli = value;
    else if (key == "--out-dir") o.out_dir = value;
    else if (key == "--commit") o.commit = value;
    else if (key == "--dirty") o.dirty = value;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

int run_main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: ncpm_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--cli PATH [--out-dir DIR] [--commit SHA] [--dirty 0|1]\n");
    return 2;
  }
  const auto w = make_workload(o.workload, o.seed);
  const auto refs = compute_references(w, nproc());
  print_provenance(o);
  const auto cpu_before = host_cpu_ticks();
  Run run = w.name == "rpc-small" ? run_rpc(w, o) : run_engine(w, o);
  const auto cpu_after = host_cpu_ticks();
  // Time the hypervisor gave to other guests: a busy host shows here first.
  const double total = cpu_after.total - cpu_before.total;
  std::fprintf(stderr, "perfbench: host steal %.1f%% of CPU time during the run\n",
               total > 0 ? 100.0 * (cpu_after.steal - cpu_before.steal) / total : 0.0);
  const auto failed = gate(w, refs, run);
  print_counts(w, run);

  std::vector<std::uint8_t> slot_modes;
  for (const auto& s : w.slots) slot_modes.push_back(static_cast<std::uint8_t>(s.mode));
  Metrics metrics;
  if (o.trace) {
    Tracer direct;
    const int lanes = w.name == "solve-large" ? nproc() : 1;
    const bool in_process = w.name != "rpc-small";
    metrics = sample_layers(run.samples, run.segments, run.windows, run.chunking, slot_modes,
                            run.workers, in_process);
    // Workspace growth is visible only in-process; the server keeps its own.
    metrics.push_back({"engine.ws_allocs", run.ws_allocs, "count"});
    for (auto& m : direct_layers(w, lanes, nproc(), direct)) metrics.push_back(m);
    for (auto& m : phase_metrics(run.phases)) metrics.push_back(m);
    run.spans.insert(run.spans.end(), direct.spans().begin(), direct.spans().end());
    const auto path = o.out_dir + "/trace-" + w.name + ".csv";
    if (!write_spans(path, run.spans, 200000)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  } else {
    metrics = end_to_end(run.samples, run.windows[0], run.chunking, run.setup_s, run.rss_mb);
  }
  const bool correct = failed == 0 && !run.samples.empty();
  print_result(correct, run.samples.size(), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
