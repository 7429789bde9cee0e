// Experiment C1 (Theorem 3): the NC popular-matching pipeline vs the
// sequential Abraham et al. baseline, across instance sizes and post-
// popularity skews. The paper makes a depth claim, not a wall-clock claim:
// the NC implementation pays polylog-many full parallel rounds, so on a
// fixed-core machine it trades constant-factor work for parallel depth.
// The `while_rounds` counter is the Lemma 2 quantity; `lemma2_bound` is
// ceil(log2 n) + 1 for comparison.

#include <benchmark/benchmark.h>

#include "core/abraham_baseline.hpp"
#include "core/popular_matching.hpp"
#include "gen/generators.hpp"
#include "pram/list_ranking.hpp"
#include "pram/workspace.hpp"

namespace {

ncpm::core::Instance make_instance(std::int64_t n, double all_f_fraction) {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(n);
  cfg.num_posts = static_cast<std::int32_t>(n + n / 2);
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.all_f_fraction = all_f_fraction;
  cfg.contention = 3.0;
  cfg.seed = 42;
  return ncpm::gen::solvable_strict_instance(cfg);
}

void BM_PopularNC(benchmark::State& state) {
  const auto inst = make_instance(state.range(0), 0.2);
  ncpm::core::PopularRunStats stats;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_popular_matching(inst, ws, &stats);
    benchmark::DoNotOptimize(m);
  }
  const auto n = static_cast<std::uint64_t>(inst.num_applicants() + inst.total_posts());
  state.counters["while_rounds"] = static_cast<double>(stats.while_rounds);
  state.counters["lemma2_bound"] = static_cast<double>(ncpm::pram::ceil_log2(n) + 1);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PopularNC)->RangeMultiplier(4)->Range(1 << 8, 1 << 17)->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

void BM_PopularSequential(benchmark::State& state) {
  const auto inst = make_instance(state.range(0), 0.2);
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching_sequential(inst);
    benchmark::DoNotOptimize(m);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PopularSequential)->RangeMultiplier(4)->Range(1 << 8, 1 << 17)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

// Large sparse configuration: the adversarial binary-tree family drives
// Θ(log n) while-rounds whose alive-edge set shrinks by roughly one tree
// level per round. An engine that re-scans all m original edges every round
// pays Θ(m log m) *per round*; a compacting engine pays it once and then
// works proportionally to the surviving edges. This is the configuration
// where the difference dominates end-to-end wall-clock.
void BM_PopularNC_LargeSparse(benchmark::State& state) {
  const auto inst =
      ncpm::gen::binary_tree_instance(static_cast<std::int32_t>(state.range(0)));
  ncpm::pram::Workspace ws;  // reused across iterations: steady-state regime
  ncpm::core::PopularRunStats stats;
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching(inst, ws, &stats);
    benchmark::DoNotOptimize(m);
  }
  state.counters["n_applicants"] = static_cast<double>(inst.num_applicants());
  state.counters["while_rounds"] = static_cast<double>(stats.while_rounds);
  // Allocations observed during the *last* iteration's round loop — 0 once
  // the workspace is warm (the zero-allocation guarantee).
  state.counters["ws_allocs_steady"] = static_cast<double>(
      stats.workspace_allocs_first_round + stats.workspace_allocs_later_rounds);
}
BENCHMARK(BM_PopularNC_LargeSparse)->DenseRange(12, 18, 2)->Unit(benchmark::kMillisecond);

// Zipf-skewed random instances: heavy first-choice contention; existence is
// not guaranteed, so this measures the decision pipeline on realistic loads.
void BM_PopularNC_Zipf(benchmark::State& state) {
  ncpm::gen::StrictConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants;
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.zipf_s = 1.0;
  cfg.seed = 7;
  const auto inst = ncpm::gen::random_strict_instance(cfg);
  std::int64_t exists = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_popular_matching(inst, ws);
    exists = m.has_value() ? 1 : 0;
    benchmark::DoNotOptimize(m);
  }
  state.counters["admits_popular"] = static_cast<double>(exists);
}
BENCHMARK(BM_PopularNC_Zipf)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_PopularSequential_Zipf(benchmark::State& state) {
  ncpm::gen::StrictConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants;
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.zipf_s = 1.0;
  cfg.seed = 7;
  const auto inst = ncpm::gen::random_strict_instance(cfg);
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching_sequential(inst);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PopularSequential_Zipf)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
