// Experiment C5 (Section IV-E): optimal popular matchings. The profile
// variants pay one margin pass per rank bucket instead of the paper's
// n^(R+1) integer weights; `profile_dim` reports the bucket count. Counting
// and the profile variants run out to 2^17 with a complexity fit: their
// per-component work is one O(n) switch-menu pass.

#include <benchmark/benchmark.h>

#include "core/max_card_popular.hpp"
#include "core/optimal_popular.hpp"
#include "core/switching_graph.hpp"
#include "gen/generators.hpp"

namespace {

ncpm::core::Instance instance_for(std::int64_t n) {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(n);
  cfg.num_posts = static_cast<std::int32_t>(n + n / 2);
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.all_f_fraction = 0.3;
  cfg.contention = 3.0;
  cfg.seed = 23;
  return ncpm::gen::solvable_strict_instance(cfg);
}

void BM_RankMaximalPopular(benchmark::State& state) {
  const auto inst = instance_for(state.range(0));
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_rank_maximal_popular(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.counters["profile_dim"] = static_cast<double>(inst.max_ranks() + 1);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RankMaximalPopular)->RangeMultiplier(4)->Range(1 << 8, 1 << 17)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_FairPopular(benchmark::State& state) {
  const auto inst = instance_for(state.range(0));
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_fair_popular(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FairPopular)->RangeMultiplier(4)->Range(1 << 8, 1 << 17)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_CountPopular(benchmark::State& state) {
  const auto inst = instance_for(state.range(0));
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto count = ncpm::core::count_popular_matchings(inst, ws);
    benchmark::DoNotOptimize(count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CountPopular)->RangeMultiplier(4)->Range(1 << 8, 1 << 17)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_MaxWeightPopular(benchmark::State& state) {
  const auto inst = instance_for(state.range(0));
  const ncpm::core::WeightFn weight = [&inst](std::int32_t a, std::int32_t p) {
    if (inst.is_last_resort(p)) return std::int64_t{0};
    return static_cast<std::int64_t>((a * 131 + p * 17) % 1000);
  };
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_optimal_popular(inst, weight, true, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MaxWeightPopular)->RangeMultiplier(4)->Range(1 << 8, 1 << 15)
    ->Unit(benchmark::kMillisecond);

// Reference point: Algorithm 3 as the unit-weight special case.
void BM_MaxCardAsWeightBaseline(benchmark::State& state) {
  const auto inst = instance_for(state.range(0));
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_max_card_popular(inst, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MaxCardAsWeightBaseline)->RangeMultiplier(4)->Range(1 << 8, 1 << 15)
    ->Unit(benchmark::kMillisecond);

}  // namespace
