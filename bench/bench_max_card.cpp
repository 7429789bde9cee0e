// Experiment C3 (Theorem 10 / Algorithm 3): maximum-cardinality popular
// matching. Measures the full pipeline and the switching phase alone, and
// reports how many applicants the switching phase rescued from their last
// resorts (`gained`) — the quantity Algorithm 3 maximises.

#include <benchmark/benchmark.h>

#include "core/optimal_popular.hpp"
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

// Algorithm 3's second stage on the G' Algorithm 1 ran in, as the served
// mode runs it: switching graph, selection and apply.
void BM_SwitchingPhaseOnly(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  const auto inst = pressured_instance(state.range(0));
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  const auto base = ncpm::core::find_popular_matching(inst, rg, ws);
  std::size_t gained = 0;
  for (auto _ : state) {
    auto m = ncpm::core::optimize_popular(inst, rg, *base,
                                          ncpm::core::Objective::kMaxCardinality, ws);
    gained = ncpm::core::matching_size(inst, m) - ncpm::core::matching_size(inst, *base);
    benchmark::DoNotOptimize(m);
  }
  state.counters["gained"] = static_cast<double>(gained);
  state.counters["base_size"] = static_cast<double>(ncpm::core::matching_size(inst, *base));
}
BENCHMARK(BM_SwitchingPhaseOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

// Ablation: one selector key prices every switching path of a tree
// component with a single weighted list-ranking pass and keeps each
// component's best; this measures that selection in isolation, on max-card's
// deltas (+1 when an applicant leaves its last resort, -1 when it moves onto
// it).
void BM_SelectionOnly(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  const auto inst = pressured_instance(state.range(0));
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  const auto base = ncpm::core::find_popular_matching(inst, rg, ws);
  const ncpm::core::SwitchingEngine engine(inst, rg, *base, ws);
  const auto& next = engine.pseudoforest().next;
  std::vector<std::int64_t> delta(static_cast<std::size_t>(inst.total_posts()), 0);
  for (std::size_t v = 0; v < delta.size(); ++v) {
    if (engine.out_applicant()[v] == ncpm::core::kNone) continue;
    delta[v] = std::int64_t{inst.is_last_resort(static_cast<std::int32_t>(v))} -
               std::int64_t{inst.is_last_resort(next[v])};
  }
  for (auto _ : state) {
    ncpm::core::SwitchingEngine::Selector selector(engine, ws);
    selector.refine(delta, ws);
    auto choices = selector.choices(ws);
    benchmark::DoNotOptimize(choices);
  }
}
BENCHMARK(BM_SelectionOnly)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
