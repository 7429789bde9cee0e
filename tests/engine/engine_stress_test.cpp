// Engine stress: mixed modes fanned across workers from several producer
// threads, repeated over identical rounds. Two properties gate the PR:
//   1. thread-safety — this binary is the ThreadSanitizer CI target;
//   2. the steady-state guarantee — once every worker's workspace pools
//      have warmed to the batch's buffer shapes, further rounds of the
//      same batch perform zero workspace allocations on every worker.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/stable_generators.hpp"

namespace ncpm::engine {
namespace {

std::vector<Request> make_mixed_batch() {
  // Modes cycle over a fixed instance set: same shapes every round, so the
  // per-worker pools can converge.
  constexpr Mode kModes[] = {Mode::kSolve, Mode::kMaxCard, Mode::kFair, Mode::kRankMaximal,
                             Mode::kCount, Mode::kCheck};
  std::vector<core::Instance> instances;
  for (int i = 0; i < 4; ++i) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 80 + 40 * i;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.contention = 2.0;
    cfg.all_f_fraction = 0.25;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  std::vector<Request> batch;
  for (std::size_t i = 0; i < 36; ++i) {
    batch.push_back(
        Request::popular(kModes[i % std::size(kModes)], instances[i % instances.size()]));
  }
  // A couple of stable-marriage requests keep the non-workspace path mixed in.
  batch.push_back(Request::next_stable(gen::random_stable_instance(16, 7)));
  batch.push_back(Request::next_stable(gen::random_stable_instance(20, 8)));
  return batch;
}

void run_round(Engine& engine, int producers) {
  // Several producer threads submitting concurrently: exercises the queue
  // under contention (the TSan-relevant surface).
  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<Result>>> futures(
      static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &futures, p] {
      auto batch = make_mixed_batch();
      futures[static_cast<std::size_t>(p)] = engine.submit_batch(std::move(batch));
    });
  }
  for (auto& t : threads) t.join();
  for (auto& lane : futures) {
    for (auto& f : lane) {
      const auto res = f.get();
      ASSERT_TRUE(res.status == Status::kOk || res.status == Status::kNoSolution)
          << status_name(res.status) << ": " << res.error;
    }
  }
}

TEST(EngineStress, MixedModesReachZeroSteadyStateAllocations) {
  constexpr int kWorkers = 4;
  constexpr int kProducers = 3;
  constexpr int kMaxWarmupRounds = 20;
  Engine engine({kWorkers, 1});

  // Warm up: repeat the identical workload until one full round performs no
  // workspace allocation on any worker. Pools only ever grow toward the
  // batch's maximal buffer shapes, so this converges; how many rounds it
  // takes depends only on which requests each worker happened to draw.
  int zero_streak = 0;
  int rounds = 0;
  for (; rounds < kMaxWarmupRounds && zero_streak < 2; ++rounds) {
    const auto before = engine.stats().workspace_allocs_per_worker;
    run_round(engine, kProducers);
    engine.wait_idle();
    zero_streak =
        engine.stats().workspace_allocs_per_worker == before ? zero_streak + 1 : 0;
  }
  ASSERT_GE(zero_streak, 2) << "workspaces still allocating after " << rounds
                            << " identical rounds";

  // The actual guarantee: further identical rounds allocate nothing, on any
  // worker, while every request still succeeds.
  const auto warm = engine.stats().workspace_allocs_per_worker;
  for (int r = 0; r < 3; ++r) run_round(engine, kProducers);
  engine.wait_idle();
  const auto after = engine.stats();
  EXPECT_EQ(after.workspace_allocs_per_worker, warm)
      << "steady-state rounds grew a workspace";

  const auto per_round = static_cast<std::uint64_t>(kProducers) * 38;
  EXPECT_EQ(after.submitted, static_cast<std::uint64_t>(rounds + 3) * per_round);
  EXPECT_EQ(after.completed, after.submitted);
  EXPECT_EQ(after.workspace_allocs_per_worker.size(), static_cast<std::size_t>(kWorkers));
}

TEST(EngineStress, ConcurrentSubmittersSeeConsistentStats) {
  Engine engine({4, 1});
  run_round(engine, 4);
  engine.wait_idle();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  std::uint64_t per_mode_completed = 0;
  for (const auto& mode : stats.per_mode) {
    per_mode_completed += mode.completed;
    EXPECT_EQ(mode.completed,
              mode.ok + mode.no_solution + mode.deadline_expired + mode.invalid + mode.errors);
  }
  EXPECT_EQ(per_mode_completed, stats.completed);
}

}  // namespace
}  // namespace ncpm::engine
