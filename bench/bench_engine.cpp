// Engine throughput: instances/sec over a mixed sparse/dense batch as a
// function of worker count. Each worker solves on a one-lane executor, so
// worker count is the only parallelism axis here (lane scaling is covered
// by bench_scaling.cpp) — the scaling claim is that a batch of independent
// instances scales near-linearly 1 -> 4 workers (each worker's warm
// workspace keeps the steady state allocation-free, so there is no
// allocator contention to serialise them).
//
// BM_DecodeInstancePayload times the request decode every served instance
// pays first: ncpm-binary payload bytes to a validated core::Instance.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "gen/io_binary.hpp"

namespace {

/// Mixed batch: half sparse (many applicants, short lists), half dense
/// (fewer applicants, long lists), interleaved so neighbouring requests
/// differ in shape.
const std::vector<ncpm::core::Instance>& mixed_batch() {
  static const std::vector<ncpm::core::Instance> batch = [] {
    std::vector<ncpm::core::Instance> instances;
    for (int i = 0; i < 24; ++i) {
      ncpm::gen::SolvableConfig cfg;
      cfg.seed = 42 + static_cast<std::uint64_t>(i);
      if (i % 2 == 0) {
        cfg.num_applicants = 2000;
        cfg.num_posts = 5000;
        cfg.list_min = 2;
        cfg.list_max = 4;
        cfg.contention = 2.0;
      } else {
        cfg.num_applicants = 600;
        cfg.num_posts = 1800;
        cfg.list_min = 8;
        cfg.list_max = 16;
        cfg.contention = 3.0;
      }
      cfg.all_f_fraction = 0.2;
      instances.push_back(ncpm::gen::solvable_strict_instance(cfg));
    }
    return instances;
  }();
  return batch;
}

void BM_EngineThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto& instances = mixed_batch();

  // One engine per run (not per iteration): workspaces stay warm across
  // iterations, which is the serving steady state being measured.
  ncpm::engine::Engine engine({workers, /*lanes_per_worker=*/1});
  std::size_t solved = 0;
  for (auto _ : state) {
    std::vector<ncpm::engine::Request> requests;
    requests.reserve(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i) {
      // Mixed modes: mostly Algorithm 1, every fourth request Algorithm 3.
      const auto mode = i % 4 == 3 ? ncpm::engine::Mode::kMaxCard
                                   : ncpm::engine::Mode::kSolve;
      requests.push_back(ncpm::engine::Request::popular(mode, instances[i]));
    }
    auto futures = engine.submit_batch(std::move(requests));
    for (auto& f : futures) {
      if (f.get().status == ncpm::engine::Status::kOk) ++solved;
    }
  }
  benchmark::DoNotOptimize(solved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instances.size()));

  const auto stats = engine.stats();
  state.counters["workers"] = workers;
  state.counters["ws_allocs_total"] = static_cast<double>(stats.workspace_allocs_total);
  state.counters["mean_queue_us"] =
      stats.completed == 0 ? 0.0
                           : static_cast<double>(stats.queue_ns_total) / 1e3 /
                                 static_cast<double>(stats.completed);
  state.counters["instances_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(instances.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_DecodeInstancePayload(benchmark::State& state) {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants + cfg.num_applicants / 2;
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.all_f_fraction = 0.3;
  cfg.contention = 3.0;
  cfg.seed = 29;
  const std::string payload =
      ncpm::io::encode_instance_payload(ncpm::gen::solvable_strict_instance(cfg));
  const auto* data = reinterpret_cast<const std::uint8_t*>(payload.data());
  for (auto _ : state) {
    auto inst = ncpm::io::decode_instance_payload(data, payload.size());
    benchmark::DoNotOptimize(inst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  state.counters["payload_bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_DecodeInstancePayload)->Arg(256)->Arg(4096)->Arg(131072)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
