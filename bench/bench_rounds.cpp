// Experiment C2 (Lemma 2): the while-loop of Algorithm 2 runs at most
// ceil(log2 n) + 1 times. Swept over the adversarial binary-tree family
// (which peels roughly one level of maximal paths per round) and random
// solvable instances; the measured `while_rounds` counter vs the bound is
// the reproduced quantity — wall-clock time is secondary here.

#include <benchmark/benchmark.h>

#include "core/applicant_complete.hpp"
#include "core/reduced_graph.hpp"
#include "gen/generators.hpp"
#include "pram/list_ranking.hpp"
#include "pram/workspace.hpp"

namespace {

void BM_Lemma2_BinaryTree(benchmark::State& state) {
  const auto depth = static_cast<std::int32_t>(state.range(0));
  const auto inst = ncpm::gen::binary_tree_instance(depth);
  ncpm::pram::Workspace ws;  // reused across iterations: steady-state regime
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  std::uint64_t rounds = 0;
  std::uint64_t steady_allocs = 0;
  for (auto _ : state) {
    auto result = ncpm::core::applicant_complete_matching(inst, rg, ws);
    rounds = result.while_rounds;
    steady_allocs = result.workspace_allocs_first_round + result.workspace_allocs_later_rounds;
    benchmark::DoNotOptimize(result);
  }
  const auto n = static_cast<std::uint64_t>(inst.num_applicants() + inst.total_posts());
  state.counters["n"] = static_cast<double>(n);
  state.counters["while_rounds"] = static_cast<double>(rounds);
  state.counters["lemma2_bound"] = static_cast<double>(ncpm::pram::ceil_log2(n) + 1);
  state.counters["ws_allocs_steady"] = static_cast<double>(steady_allocs);
}
BENCHMARK(BM_Lemma2_BinaryTree)->DenseRange(2, 16, 2)->Unit(benchmark::kMillisecond);

void BM_Lemma2_RandomSolvable(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants * 2;
  cfg.list_min = 2;
  cfg.list_max = 5;
  cfg.contention = 2.0;
  cfg.seed = 11;
  const auto inst = ncpm::gen::solvable_strict_instance(cfg);
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto result = ncpm::core::applicant_complete_matching(inst, rg, ws);
    rounds = result.while_rounds;
    benchmark::DoNotOptimize(result);
  }
  const auto n = static_cast<std::uint64_t>(inst.num_applicants() + inst.total_posts());
  state.counters["while_rounds"] = static_cast<double>(rounds);
  state.counters["lemma2_bound"] = static_cast<double>(ncpm::pram::ceil_log2(n) + 1);
}
BENCHMARK(BM_Lemma2_RandomSolvable)->RangeMultiplier(4)->Range(1 << 8, 1 << 18)
    ->Unit(benchmark::kMillisecond);

// Total NC rounds of the full Algorithm 1 pipeline (all barrier-synchronised
// parallel steps), to exhibit the O(log^2 n)-style growth of the depth.
void BM_TotalNcRounds(benchmark::State& state) {
  ncpm::pram::Workspace ws;
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = static_cast<std::int32_t>(state.range(0));
  cfg.num_posts = cfg.num_applicants * 2;
  cfg.contention = 2.0;
  cfg.seed = 3;
  const auto inst = ncpm::gen::solvable_strict_instance(cfg);
  const auto rg = ncpm::core::build_reduced_graph(inst, ws);
  for (auto _ : state) {
    ws.counters().reset();
    auto result = ncpm::core::applicant_complete_matching(inst, rg, ws);
    benchmark::DoNotOptimize(result);
  }
  state.counters["nc_rounds"] = static_cast<double>(ws.counters().rounds);
  state.counters["nc_work"] = static_cast<double>(ws.counters().work);
}
BENCHMARK(BM_TotalNcRounds)->RangeMultiplier(4)->Range(1 << 8, 1 << 18)
    ->Unit(benchmark::kMillisecond);

}  // namespace
