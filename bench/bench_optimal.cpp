// Experiment C5 (Section IV-E): optimal popular matchings. The profile
// variants pay one margin pass per rank bucket that some switch touches
// instead of the paper's n^(R+1) integer weights; `profile_dim` reports
// max_ranks() + 1, the bound on that count. Counting and the profile
// variants run out to 2^17 with a complexity fit: their per-component work
// is one O(n) switch-menu pass. BM_FairPopular_LongList extends one list to
// every post, which leaves G' unchanged and must leave the time unchanged.

#include <benchmark/benchmark.h>

#include "core/max_card_popular.hpp"
#include "core/optimal_popular.hpp"
#include "core/reduced_graph.hpp"
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

/// instance_for(n) with the first applicant whose s(a) is a real post
/// ranking every post: f and s stay put, max_ranks() becomes the post count.
ncpm::core::Instance long_list_instance_for(std::int64_t n) {
  const auto base = instance_for(n);
  ncpm::pram::Workspace ws;
  const auto rg = ncpm::core::build_reduced_graph(base, ws);
  std::vector<std::vector<std::int32_t>> lists;
  std::vector<std::uint8_t> listed(static_cast<std::size_t>(base.num_posts()));
  bool extended = false;
  for (std::int32_t a = 0; a < base.num_applicants(); ++a) {
    const auto posts = base.posts_of(a);
    lists.emplace_back(posts.begin(), posts.end());
    if (extended || base.is_last_resort(rg.s_post[static_cast<std::size_t>(a)])) continue;
    extended = true;
    for (const auto p : posts) listed[static_cast<std::size_t>(p)] = 1;
    for (std::int32_t p = 0; p < base.num_posts(); ++p) {
      if (listed[static_cast<std::size_t>(p)] == 0) lists.back().push_back(p);
    }
  }
  return ncpm::core::Instance::strict(base.num_posts(), std::move(lists));
}

void BM_FairPopular_LongList(benchmark::State& state) {
  const auto inst = long_list_instance_for(state.range(0));
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_fair_popular(inst, ws);
    benchmark::DoNotOptimize(m);
  }
  state.counters["max_ranks"] = static_cast<double>(inst.max_ranks());
}
BENCHMARK(BM_FairPopular_LongList)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

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
