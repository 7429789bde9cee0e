// Experiment C3 (Theorem 10 / Algorithm 3): maximum-cardinality popular
// matching. Measures the full pipeline and the switching phase alone, and
// reports how many applicants the switching phase rescued from their last
// resorts (`gained`) — the quantity Algorithm 3 maximises.

#include <benchmark/benchmark.h>

#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"

namespace {

ncpm::core::Instance pressured_instance(std::int64_t n) {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(n);
  cfg.num_posts = static_cast<std::int32_t>(n + n / 2);
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.all_f_fraction = 0.4;  // many applicants with s(a) = l(a)
  cfg.contention = 3.0;
  cfg.seed = 17;
  return ncpm::gen::solvable_strict_instance(cfg);
}

void BM_MaxCardPipeline(benchmark::State& state) {
  const auto inst = pressured_instance(state.range(0));
  std::size_t size = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::core::find_max_card_popular(inst, ws);
    size = ncpm::core::matching_size(inst, *m);
    benchmark::DoNotOptimize(m);
  }
  state.counters["matching_size"] = static_cast<double>(size);
}
BENCHMARK(BM_MaxCardPipeline)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_SwitchingPhaseOnly(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  const auto inst = pressured_instance(state.range(0));
  const auto base = ncpm::core::find_popular_matching(inst, ws);
  std::size_t gained = 0;
  for (auto _ : state) {
    auto m = ncpm::core::maximize_cardinality(inst, *base, ws);
    gained = ncpm::core::matching_size(inst, m) - ncpm::core::matching_size(inst, *base);
    benchmark::DoNotOptimize(m);
  }
  state.counters["gained"] = static_cast<double>(gained);
  state.counters["base_size"] = static_cast<double>(ncpm::core::matching_size(inst, *base));
}
BENCHMARK(BM_SwitchingPhaseOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

// Ablation (DESIGN.md §6.3): the single weighted list-ranking pass prices
// every switching path of a tree component at once; this measures that
// margin computation in isolation.
void BM_MarginsOnly(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  const auto inst = pressured_instance(state.range(0));
  const auto base = ncpm::core::find_popular_matching(inst, ws);
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  const ncpm::core::SwitchingEngine engine(inst, rg, *base, ws);
  std::vector<std::int64_t> value(static_cast<std::size_t>(inst.total_posts()));
  for (std::int32_t p = 0; p < inst.total_posts(); ++p) {
    value[static_cast<std::size_t>(p)] = inst.is_last_resort(p) ? 0 : 1;
  }
  for (auto _ : state) {
    auto report = engine.margins(value, ws);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MarginsOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
