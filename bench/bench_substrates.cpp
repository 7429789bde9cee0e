// Experiment C8: the PRAM / graph substrates the NC algorithms stand on —
// prefix sums, pointer jumping, connected components and the 2-regular
// matcher. Round counters validate the depth claims (Theorem 8 stand-in).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "graph/connected_components.hpp"
#include "matching/two_regular.hpp"
#include "pram/list_ranking.hpp"
#include "pram/scan.hpp"

namespace {

void BM_ExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> in(n, 3), out(n);
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto total = ncpm::pram::exclusive_scan<std::int64_t>(in, out, ws);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExclusiveScan)->RangeMultiplier(8)->Range(1 << 10, 1 << 24);

void BM_ListRanking(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // One long chain — the worst case for naive traversal, log n doublings here.
  std::vector<std::int32_t> next(n);
  for (std::size_t v = 0; v + 1 < n; ++v) next[v] = static_cast<std::int32_t>(v + 1);
  next[n - 1] = static_cast<std::int32_t>(n - 1);
  ncpm::pram::Workspace ws;
  for (auto _ : state) {
    ws.counters().reset();
    auto r = ncpm::pram::list_rank(next, ws);
    benchmark::DoNotOptimize(r);
  }
  state.counters["doubling_rounds"] = static_cast<double>(ws.counters().rounds);
}
BENCHMARK(BM_ListRanking)->RangeMultiplier(8)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond);

void BM_ListRanking_ShortPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Many disjoint paths of 1-16 steps over shuffled ids: the shape the
  // solver's maximal-path and switching-path rankings actually see, where
  // the doubling converges after a few rounds.
  std::mt19937_64 rng(7);
  std::vector<std::int32_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  std::vector<std::int32_t> next(n);
  for (std::size_t at = 0; at < n;) {
    const std::size_t last = std::min(n - 1, at + 1 + rng() % 16);
    for (std::size_t i = at; i < last; ++i) next[static_cast<std::size_t>(id[i])] = id[i + 1];
    next[static_cast<std::size_t>(id[last])] = id[last];
    at = last + 1;
  }
  ncpm::pram::Workspace ws;
  for (auto _ : state) {
    ws.counters().reset();
    auto r = ncpm::pram::list_rank(next, ws);
    benchmark::DoNotOptimize(r);
  }
  state.counters["doubling_rounds"] = static_cast<double>(ws.counters().rounds);
}
// The extra 256 is the size CI's bench-smoke filter selects.
BENCHMARK(BM_ListRanking_ShortPaths)->Arg(1 << 8)->RangeMultiplier(8)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(5);
  const std::size_t m = 2 * n;
  std::vector<std::int32_t> eu(m), ev(m);
  for (std::size_t j = 0; j < m; ++j) {
    eu[j] = static_cast<std::int32_t>(rng() % n);
    ev[j] = static_cast<std::int32_t>(rng() % n);
  }
  std::uint64_t hook_rounds = 0;
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto cc = ncpm::graph::connected_components(n, eu, ev, ws);
    hook_rounds = cc.hook_rounds;
    benchmark::DoNotOptimize(cc);
  }
  state.counters["hook_rounds"] = static_cast<double>(hook_rounds);
}
// The extra 256 is the size CI's bench-smoke filter selects.
BENCHMARK(BM_ConnectedComponents)->Arg(1 << 8)->RangeMultiplier(8)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond);

void BM_TwoRegularMatching(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0)) & ~std::size_t{1};
  // One giant even cycle.
  std::vector<std::int32_t> eu(n), ev(n);
  for (std::size_t v = 0; v < n; ++v) {
    eu[v] = static_cast<std::int32_t>(v);
    ev[v] = static_cast<std::int32_t>((v + 1) % n);
  }
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::matching::two_regular_perfect_matching(n, eu, ev, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TwoRegularMatching)->RangeMultiplier(8)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond);

// The blocked scan's per-block loops (plain portable C++, no SIMD tier) on
// a warm workspace, single lane so the series isolates the loops rather
// than the barrier.
void BM_ScanTiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ncpm::pram::Executor ex(1);
  ncpm::pram::Workspace ws(ex);
  std::vector<std::uint32_t> in(n, 3), out(n);
  for (auto _ : state) {
    auto total = ncpm::pram::exclusive_scan<std::uint32_t>(in, out, ws);
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScanTiled)->RangeMultiplier(16)->Range(1 << 10, 1 << 22);

// Dispatch + barrier cost of one executor round over a trivial body, per
// lane count: the fixed price every synchronous PRAM round pays on this
// substrate. Lanes = 1 is the inline path (no pool, no barrier) — the
// regression gate for "the executor costs nothing when parallelism is off".
void BM_ExecutorOverhead(benchmark::State& state) {
  ncpm::pram::Executor ex(static_cast<int>(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::int64_t> out(n);
  for (auto _ : state) {
    ex.parallel_for(n, [&](std::size_t i) { out[i] = static_cast<std::int64_t>(i); });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["lanes"] = static_cast<double>(state.range(0));
}
// UseRealTime: lane 0 blocks in the round barrier, which accrues no
// per-thread CPU time — exactly the overhead being measured.
BENCHMARK(BM_ExecutorOverhead)
    ->ArgsProduct({{1, 2, 4, 8}, {1 << 10, 1 << 16, 1 << 20}})
    ->UseRealTime();

}  // namespace
