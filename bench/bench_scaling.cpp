// Experiment C9: executor-lane scaling of the end-to-end NC pipeline. A
// PRAM algorithm on p << n cores can only show p-bounded speedup; the
// reproduced claim is that the implementation scales with cores until the
// memory system saturates, while the sequential baseline (single-threaded
// by nature) stays flat. Each width is a private pram::Executor bound via a
// Workspace — no global state. UseRealTime because pool-thread work does
// not appear in per-thread CPU time.

#include <benchmark/benchmark.h>

#include "core/abraham_baseline.hpp"
#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "gen/generators.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace {

constexpr std::int32_t kN = 1 << 18;

const ncpm::core::Instance& big_instance() {
  static const ncpm::core::Instance inst = [] {
    ncpm::gen::SolvableConfig cfg;
    cfg.num_applicants = kN;
    cfg.num_posts = kN + kN / 2;
    cfg.list_min = 2;
    cfg.list_max = 6;
    cfg.all_f_fraction = 0.3;
    cfg.contention = 3.0;
    cfg.seed = 2024;
    return ncpm::gen::solvable_strict_instance(cfg);
  }();
  return inst;
}

void BM_PopularNC_Threads(benchmark::State& state) {
  const auto& inst = big_instance();
  ncpm::pram::Executor ex(static_cast<int>(state.range(0)));
  ncpm::pram::Workspace ws(ex);
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PopularNC_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MaxCardNC_Threads(benchmark::State& state) {
  const auto& inst = big_instance();
  ncpm::pram::Executor ex(static_cast<int>(state.range(0)));
  ncpm::pram::Workspace ws(ex);
  for (auto _ : state) {
    auto m = ncpm::core::find_max_card_popular(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MaxCardNC_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Large sparse configuration (see bench_popular.cpp): chain-heavy reduced
// graph with many while-rounds, where per-round work proportional to the
// surviving edges — not the original m — decides the wall-clock.
const ncpm::core::Instance& sparse_instance() {
  static const ncpm::core::Instance inst = ncpm::gen::binary_tree_instance(17);
  return inst;
}

void BM_PopularNC_LargeSparse_Threads(benchmark::State& state) {
  const auto& inst = sparse_instance();
  ncpm::pram::Executor ex(static_cast<int>(state.range(0)));
  ncpm::pram::Workspace ws(ex);
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PopularNC_LargeSparse_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SequentialBaseline_Reference(benchmark::State& state) {
  const auto& inst = big_instance();
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching_sequential(inst);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SequentialBaseline_Reference)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
