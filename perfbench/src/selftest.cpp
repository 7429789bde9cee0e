// perfbench_selftest — the benchmark's own tests:
//   * the gate rejects a corrupted matching and an off-by-one count;
//   * the open-loop generator reports lateness against a stalled server,
//     and little against a live one;
//   * one seed reproduces the same request bytes and sequence.
// Exits 0 when every check passes.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "gen/io_binary.hpp"
#include "measure.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "rpc_load.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

using perfbench::Workload;
using ncpm::engine::Mode;

void gate_rejects_corruption() {
  const auto w = perfbench::make_workload("rpc-small", 7);
  const auto refs = perfbench::compute_references(w, 4);
  bool saw_solve = false;
  bool saw_count = false;
  for (std::size_t slot = 0; slot < w.slots.size(); ++slot) {
    const auto& ref = refs[slot];
    const auto mode = w.slots[slot].mode;
    if (ref.bytes.empty() || ref.bytes[0] == 'N') continue;
    CHECK(perfbench::check_output(w, slot, ref, ref.bytes).empty());
    if (mode == Mode::kSolve && !saw_solve && w.instances[w.slots[slot].instance].strict_prefs()) {
      saw_solve = true;
      auto m = ncpm::io::decode_matching_payload(
          reinterpret_cast<const std::uint8_t*>(ref.bytes.data()) + 1, ref.bytes.size() - 1);
      m.unmatch_left(0);  // applicant 0 now sits on neither f(a) nor s(a)
      const auto bad = perfbench::canonical(m);
      CHECK(!perfbench::check_output(w, slot, ref, bad).empty());
    }
    if (mode == Mode::kCount && !saw_count) {
      saw_count = true;
      auto bad = ref.bytes;
      bad[1] = static_cast<char>(bad[1] + 1);  // count + 1 (low byte first)
      CHECK(!perfbench::check_output(w, slot, ref, bad).empty());
    }
  }
  CHECK(saw_solve);
  CHECK(saw_count);
}

/// p99 of send lateness (t_sent - t_sched) over one open-loop segment.
double open_loop_lateness_ms(std::uint16_t port, const Workload& w,
                             const std::vector<std::string>& frames, double rate) {
  perfbench::RpcConnection conn("127.0.0.1", port, w, frames, 0, 0);
  perfbench::Segment seg{perfbench::Segment::Kind::kOpen, perfbench::Segment::kOpenLo, rate, 0.5,
                         false};
  perfbench::Tracer tracer;
  conn.run(seg, 0, perfbench::now_ns(), rate, 0, 0, 200'000'000ULL, tracer);
  std::vector<double> late;
  for (const auto& s : conn.samples()) late.push_back(static_cast<double>(s.t_sent - s.t_sched));
  CHECK(!late.empty());
  return perfbench::quantile(late, 0.99) / 1e6;
}

void generator_reports_stall() {
  const auto w = perfbench::make_workload("rpc-small", 11);
  const auto frames = perfbench::encode_frames(w);

  // A peer that completes the hello and then never reads again.
  auto listener = ncpm::net::Socket::listen_on("127.0.0.1", 0, 4);
  listener.set_recv_buffer(4096);
  std::atomic<bool> release{false};
  std::thread stalled([&] {
    auto peer = listener.accept_connection();
    ncpm::net::expect_hello(peer);
    ncpm::net::send_hello(peer);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  const double stalled_ms = open_loop_lateness_ms(listener.local_port(), w, frames, 20000);
  release = true;
  stalled.join();

  ncpm::net::ServerConfig cfg;
  cfg.engine.num_workers = 2;
  ncpm::net::Server server(cfg);
  server.start();
  const double live_ms = open_loop_lateness_ms(server.port(), w, frames, 500);
  server.stop();

  std::fprintf(stderr, "selftest: send lateness p99 stalled %.1f ms, live %.3f ms\n", stalled_ms,
               live_ms);
  CHECK(stalled_ms > 100.0);
  CHECK(live_ms < 20.0);
}

std::string workload_bytes(const Workload& w) {
  std::string out = ncpm::io::write_binary_instances(w.instances);
  for (const auto& frame : perfbench::encode_frames(w)) out += frame;
  for (const auto s : w.sequence) out.append(reinterpret_cast<const char*>(&s), sizeof(s));
  for (const auto& inst : w.stable_instances) {
    for (std::int32_t m = 0; m < inst.size(); ++m) {
      for (const auto x : inst.man_prefs(m)) out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      for (const auto x : inst.woman_prefs(m)) out.append(reinterpret_cast<const char*>(&x), sizeof(x));
    }
  }
  return out;
}

void seed_reproduces_requests() {
  for (const std::string name : {"rpc-small", "modes-mid"}) {
    const auto a = workload_bytes(perfbench::make_workload(name, 42));
    const auto b = workload_bytes(perfbench::make_workload(name, 42));
    const auto c = workload_bytes(perfbench::make_workload(name, 43));
    CHECK(a == b);
    CHECK(a != c);
  }
}

}  // namespace

int main() {
  try {
    gate_rejects_corruption();
    generator_reports_stall();
    seed_reproduces_requests();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: exception: %s\n", e.what());
    ++failures;
  }
  std::printf("perfbench selftest: %s (%d failure(s))\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
