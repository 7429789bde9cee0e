// Experiment C4 (Section IV-A ablation): the four NC cycle-finding methods
// on random directed pseudoforests. The paper offers transitive closure,
// incidence-matrix rank and per-edge component counting as alternatives;
// pointer doubling is the natural functional-graph method. All return the
// same cycles (tested); this measures their very different work terms:
// pointer doubling O(n log n), transitive closure O(n^3 log n / 64), the
// per-edge methods O(n) component computations.

#include <benchmark/benchmark.h>

#include <random>

#include "graph/pseudoforest.hpp"

namespace {

ncpm::graph::DirectedPseudoforest random_pf(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ncpm::graph::DirectedPseudoforest pf;
  pf.next.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    pf.next[v] = (rng() % 8 == 0) ? ncpm::pram::kNone : static_cast<std::int32_t>(rng() % n);
  }
  return pf;
}

template <ncpm::graph::CycleMethod Method>
void BM_CycleMethod(benchmark::State& state) {
  const auto pf = random_pf(static_cast<std::size_t>(state.range(0)), 5);
  std::size_t cycle_vertices = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto mask = ncpm::graph::cycle_members(pf, Method, ws);
    cycle_vertices = 0;
    for (const auto b : mask) cycle_vertices += b;
    benchmark::DoNotOptimize(mask);
  }
  state.counters["cycle_vertices"] = static_cast<double>(cycle_vertices);
}

BENCHMARK_TEMPLATE(BM_CycleMethod, ncpm::graph::CycleMethod::PointerDoubling)
    ->RangeMultiplier(4)->Range(1 << 8, 1 << 20)->Unit(benchmark::kMillisecond)
    ->Name("BM_Cycles_PointerDoubling");
BENCHMARK_TEMPLATE(BM_CycleMethod, ncpm::graph::CycleMethod::TransitiveClosure)
    ->RangeMultiplier(4)->Range(1 << 8, 1 << 12)->Unit(benchmark::kMillisecond)
    ->Name("BM_Cycles_TransitiveClosure");
BENCHMARK_TEMPLATE(BM_CycleMethod, ncpm::graph::CycleMethod::Gf2Rank)
    ->RangeMultiplier(2)->Range(1 << 6, 1 << 8)->Unit(benchmark::kMillisecond)
    ->Name("BM_Cycles_Gf2Rank");
BENCHMARK_TEMPLATE(BM_CycleMethod, ncpm::graph::CycleMethod::EdgeRemovalCC)
    ->RangeMultiplier(2)->Range(1 << 6, 1 << 9)->Unit(benchmark::kMillisecond)
    ->Name("BM_Cycles_EdgeRemovalCC");

// Full analysis (roots, distances, lengths, ordered cycles) at scale with
// the default method — what Algorithms 3 and 4 actually consume.
void BM_FullAnalysis(benchmark::State& state) {
  const auto pf = random_pf(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto analysis = ncpm::graph::analyze_cycles(pf, ncpm::graph::CycleMethod::PointerDoubling, ws);
    benchmark::DoNotOptimize(analysis);
  }
}
BENCHMARK(BM_FullAnalysis)->RangeMultiplier(4)->Range(1 << 8, 1 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
