// Experiment C7 (Theorem 16 / Algorithm 4): enumerating all "next" stable
// matchings of a given stable matching — the NC pipeline (parallel reduced
// lists + pseudoforest cycles) vs the sequential rotation finder. The
// rotation count per matching is reported; both routes return identical
// rotation sets (tested).

#include <benchmark/benchmark.h>

#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"
#include "stable/rotations.hpp"

namespace {

void BM_NextStableNC(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::random_stable_instance(n, 31);
  const auto m0 = ncpm::stable::man_optimal(inst);
  std::size_t rotations = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto result = ncpm::stable::next_stable_matchings(inst, m0, ws);
    rotations = result.rotations.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rotations"] = static_cast<double>(rotations);
}
BENCHMARK(BM_NextStableNC)->RangeMultiplier(2)->Range(1 << 6, 1 << 12)
    ->Unit(benchmark::kMillisecond);

void BM_NextStableSequential(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::random_stable_instance(n, 31);
  const auto m0 = ncpm::stable::man_optimal(inst);
  for (auto _ : state) {
    auto rotations = ncpm::stable::exposed_rotations_sequential(inst, m0);
    benchmark::DoNotOptimize(rotations);
  }
}
BENCHMARK(BM_NextStableSequential)->RangeMultiplier(2)->Range(1 << 6, 1 << 12)
    ->Unit(benchmark::kMillisecond);

// Rotation-rich adversarial family: cyclic-shift preferences.
void BM_NextStableCyclic(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::cyclic_stable_instance(n);
  const auto m0 = ncpm::stable::man_optimal(inst);
  std::size_t rotations = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto result = ncpm::stable::next_stable_matchings(inst, m0, ws);
    rotations = result.rotations.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rotations"] = static_cast<double>(rotations);
}
BENCHMARK(BM_NextStableCyclic)->RangeMultiplier(2)->Range(1 << 6, 1 << 12)
    ->Unit(benchmark::kMillisecond);

// The worst case for the windowed scan: at the woman-optimal matching of
// the cyclic family no man has s_M(m), so every man reads his whole list.
void BM_NextStableAtWomanOptimal(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::cyclic_stable_instance(n);
  const auto mz = ncpm::stable::woman_optimal(inst);
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto result = ncpm::stable::next_stable_matchings(inst, mz, ws);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NextStableAtWomanOptimal)->RangeMultiplier(2)->Range(1 << 6, 1 << 12)
    ->Unit(benchmark::kMillisecond);

// A full lattice descent, taking the first successor each time — the
// "enumerate stable matchings with small parallel time per matching" use
// case the paper cites from Gusfield-Irving.
void BM_LatticeDescent(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::random_stable_instance(n, 77);
  const auto m0 = ncpm::stable::man_optimal(inst);
  std::size_t steps = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = m0;
    steps = 0;
    while (true) {
      auto result = ncpm::stable::next_stable_matchings(inst, m, ws);
      if (result.is_woman_optimal) break;
      m = result.successors.front();
      ++steps;
    }
    benchmark::DoNotOptimize(m);
  }
  state.counters["descent_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_LatticeDescent)->RangeMultiplier(2)->Range(1 << 5, 1 << 9)
    ->Unit(benchmark::kMillisecond);

}  // namespace
