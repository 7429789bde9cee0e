// Experiment C8: the PRAM / graph substrates the NC algorithms stand on —
// prefix sums, pointer jumping, connected components and the 2-regular
// matcher. Round counters validate the depth claims (Theorem 8 stand-in).

#include <benchmark/benchmark.h>

#include <random>

#include "graph/connected_components.hpp"
#include "matching/two_regular.hpp"
#include "pram/list_ranking.hpp"
#include "pram/scan.hpp"
#include "pram/simd.hpp"

namespace {

// A/B harness for the SIMD substrate: arg "simd" = 0 forces the scalar tier
// for the duration of the benchmark, 1 leaves runtime dispatch in charge.
// The active tier lands in the "simd_tier" counter (0 scalar / 2 avx2) so
// result JSON self-describes which series is which; on a machine without
// AVX2 both series legitimately coincide.
struct SimdAB {
  explicit SimdAB(benchmark::State& state) {
    if (state.range(1) == 0) ncpm::pram::force_simd_tier(ncpm::pram::SimdTier::kScalar);
    state.counters["simd_tier"] =
        static_cast<double>(ncpm::pram::active_simd_tier());
  }
  ~SimdAB() { ncpm::pram::clear_forced_simd_tier(); }
};

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
  const std::vector<std::uint8_t> alive(n, 1);
  for (auto _ : state) {
    ncpm::pram::Workspace ws;
    auto m = ncpm::matching::two_regular_perfect_matching(n, eu, ev, alive, ws);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TwoRegularMatching)->RangeMultiplier(8)->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMillisecond);

// The blocked-scan substrate (sum + exclusive_scan_carry per block), scalar
// vs dispatched, single lane so the series isolates the kernels rather than
// the barrier.
void BM_ScanTiled(benchmark::State& state) {
  SimdAB ab(state);
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
BENCHMARK(BM_ScanTiled)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18, 1 << 22}, {0, 1}});

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
