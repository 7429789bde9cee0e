// Experiment C6 (Theorem 11): maximum-cardinality bipartite matching via
// the popular-matching reduction vs Hopcroft–Karp directly, over a density
// sweep. The reduction's own cost (building the rank-1 instance) is the NC
// part of the theorem; `cardinality` certifies both routes agree. Also
// measures the general ties solver (AIKM machinery).

#include <benchmark/benchmark.h>

#include "core/ties.hpp"
#include "gen/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "support/rank1_reduction.hpp"

namespace {

void BM_McbmViaPopularReduction(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const double avg_deg = static_cast<double>(state.range(1));
  const auto g = ncpm::gen::random_bipartite(n, n, avg_deg, 97);
  std::size_t cardinality = 0;
  for (auto _ : state) {
    auto m = ncpm::test::max_card_bipartite_via_popular(g);
    cardinality = m.size();
    benchmark::DoNotOptimize(m);
  }
  state.counters["cardinality"] = static_cast<double>(cardinality);
}
BENCHMARK(BM_McbmViaPopularReduction)
    ->ArgsProduct({{1 << 8, 1 << 10, 1 << 12, 1 << 14}, {2, 5, 10}})
    ->Unit(benchmark::kMillisecond);

void BM_McbmHopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const double avg_deg = static_cast<double>(state.range(1));
  const auto g = ncpm::gen::random_bipartite(n, n, avg_deg, 97);
  std::size_t cardinality = 0;
  for (auto _ : state) {
    auto m = ncpm::matching::maximum_matching(g);
    cardinality = m.size();
    benchmark::DoNotOptimize(m);
  }
  state.counters["cardinality"] = static_cast<double>(cardinality);
}
BENCHMARK(BM_McbmHopcroftKarp)
    ->ArgsProduct({{1 << 8, 1 << 10, 1 << 12, 1 << 14}, {2, 5, 10}})
    ->Unit(benchmark::kMillisecond);

void BM_ReductionConstructionOnly(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto g = ncpm::gen::random_bipartite(n, n, 5.0, 97);
  for (auto _ : state) {
    auto inst = ncpm::test::rank1_instance(g);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_ReductionConstructionOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_PopularWithTies(benchmark::State& state) {
  ncpm::gen::TiesConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants;
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.tie_prob = 0.4;
  cfg.seed = 13;
  const auto inst = ncpm::gen::random_ties_instance(cfg);
  std::int64_t exists = 0;
  for (auto _ : state) {
    auto m = ncpm::core::find_popular_matching_ties(inst);
    exists = m.has_value() ? 1 : 0;
    benchmark::DoNotOptimize(m);
  }
  state.counters["admits_popular"] = static_cast<double>(exists);
}
BENCHMARK(BM_PopularWithTies)->RangeMultiplier(4)->Range(1 << 8, 1 << 15)
    ->Unit(benchmark::kMillisecond);

}  // namespace
