// Experiment C4 (Section IV-A): NC cycle finding on random directed
// pseudoforests by pointer doubling, O(n log n) work in O(log n) rounds —
// the full analysis Algorithms 3 and 4 consume.

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

// Full analysis (roots, distances, lengths, ordered cycles) at scale —
// what Algorithms 3 and 4 actually consume.
void BM_FullAnalysis(benchmark::State& state) {
  const auto pf = random_pf(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto analysis = ncpm::graph::analyze_cycles(pf, ws);
    benchmark::DoNotOptimize(analysis);
  }
}
BENCHMARK(BM_FullAnalysis)->RangeMultiplier(4)->Range(1 << 8, 1 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace
