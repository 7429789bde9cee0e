// Executor-scaling demo: the NC pipeline on a large instance across
// executor lane counts, against the sequential baseline, with the Lemma 2
// round counter. Each width is its own pram::Executor bound through a
// pram::Workspace — no process-global thread state is touched, so several
// sweeps could even run concurrently.

#include <chrono>
#include <cstdio>
#include <functional>

#include "core/abraham_baseline.hpp"
#include "core/popular_matching.hpp"
#include "gen/generators.hpp"
#include "pram/executor.hpp"
#include "pram/list_ranking.hpp"
#include "pram/workspace.hpp"

namespace {

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = 1 << 19;
  cfg.num_posts = cfg.num_applicants + cfg.num_applicants / 2;
  cfg.list_min = 2;
  cfg.list_max = 6;
  cfg.all_f_fraction = 0.3;
  cfg.contention = 4.0;
  cfg.seed = 99;
  std::printf("generating instance with %d applicants...\n", cfg.num_applicants);
  const auto inst = ncpm::gen::solvable_strict_instance(cfg);

  const double seq_ms =
      time_ms([&] { auto m = ncpm::core::find_popular_matching_sequential(inst); });
  std::printf("sequential baseline: %8.1f ms\n", seq_ms);

  const int max_lanes = ncpm::pram::default_lanes();
  double t1 = 0.0;
  for (int lanes = 1; lanes <= max_lanes; lanes *= 2) {
    ncpm::pram::Executor ex(lanes);
    ncpm::pram::Workspace ws(ex);
    ncpm::core::PopularRunStats stats;
    const double ms = time_ms([&] {
      auto m = ncpm::core::find_popular_matching(inst, ws, &stats);
    });
    if (lanes == 1) t1 = ms;
    const auto n = static_cast<std::uint64_t>(inst.num_applicants() + inst.total_posts());
    std::printf(
        "NC pipeline, %2d lanes: %8.1f ms  speedup vs 1 lane: %4.2fx  "
        "while-loop rounds %llu (Lemma 2 bound %u)\n",
        lanes, ms, t1 / ms, static_cast<unsigned long long>(stats.while_rounds),
        ncpm::pram::ceil_log2(n) + 1);
  }
  return 0;
}
