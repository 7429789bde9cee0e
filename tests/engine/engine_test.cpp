// The engine is a scheduler, not a solver: whatever the worker count, every
// Request must produce byte-identical results to the direct single-call API,
// and the control surfaces (deadlines, invalid requests, stats) must behave
// deterministically.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/switching_graph.hpp"
#include "core/ties.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

namespace ncpm::engine {
namespace {

std::vector<core::Instance> mixed_instances(std::uint64_t seed) {
  std::vector<core::Instance> instances;
  for (int i = 0; i < 6; ++i) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 20 + i * 10;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.contention = 1.0 + 0.5 * i;
    cfg.all_f_fraction = 0.2;
    cfg.seed = seed * 100 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  for (int i = 0; i < 4; ++i) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 15 + i * 8;
    cfg.num_posts = 12 + i * 8;
    cfg.seed = seed * 100 + 50 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::random_strict_instance(cfg));
  }
  instances.push_back(gen::contention_instance(7));  // admits no popular matching
  return instances;
}

/// Direct single-call reference for one request.
Result reference_result(Mode mode, const core::Instance& inst) {
  pram::Workspace ws;
  Result ref;
  ref.mode = mode;
  std::optional<matching::Matching> m;
  switch (mode) {
    case Mode::kSolve: m = core::find_popular_matching(inst, ws); break;
    case Mode::kMaxCard: m = core::find_max_card_popular(inst, ws); break;
    case Mode::kFair: m = core::find_fair_popular(inst, ws); break;
    case Mode::kRankMaximal: m = core::find_rank_maximal_popular(inst, ws); break;
    case Mode::kCount: {
      const auto count = core::count_popular_matchings(inst, ws);
      if (count.has_value()) {
        ref.count = *count;
        ref.status = Status::kOk;
      } else {
        ref.status = Status::kNoSolution;
      }
      return ref;
    }
    default: ADD_FAILURE() << "unsupported reference mode"; return ref;
  }
  if (m.has_value()) {
    ref.status = Status::kOk;
    ref.matching_size = core::matching_size(inst, *m);
    ref.matching = std::move(m);
  } else {
    ref.status = Status::kNoSolution;
  }
  return ref;
}

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

// Identical results under 1/2/4/8 workers vs the sequential reference, with
// modes interleaved across one mixed batch.
TEST_P(EngineDeterminism, MatchesSequentialAcrossWorkerCounts) {
  const auto instances = mixed_instances(GetParam());
  constexpr Mode kModes[] = {Mode::kSolve, Mode::kMaxCard, Mode::kFair, Mode::kRankMaximal,
                             Mode::kCount};
  std::vector<Result> reference;
  std::vector<Mode> mode_of;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Mode mode = kModes[i % std::size(kModes)];
    mode_of.push_back(mode);
    reference.push_back(reference_result(mode, instances[i]));
  }

  for (const int workers : {1, 2, 4, 8}) {
    Engine engine({workers, 1});
    std::vector<Request> requests;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      requests.push_back(Request::popular(mode_of[i], instances[i]));
    }
    auto futures = engine.submit_batch(std::move(requests));
    ASSERT_EQ(futures.size(), instances.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const auto res = futures[i].get();
      const auto& ref = reference[i];
      ASSERT_EQ(res.status, ref.status) << "workers " << workers << " request " << i;
      ASSERT_EQ(res.matching.has_value(), ref.matching.has_value())
          << "workers " << workers << " request " << i;
      if (ref.matching.has_value()) {
        EXPECT_TRUE(*res.matching == *ref.matching)
            << "workers " << workers << " request " << i;
        EXPECT_EQ(res.matching_size, ref.matching_size);
      }
      EXPECT_EQ(res.count, ref.count) << "workers " << workers << " request " << i;
      EXPECT_GE(res.worker_id, 0);
      EXPECT_LT(res.worker_id, workers);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism, ::testing::Values(1, 2, 3));

TEST(Engine, SolveMatchesTiesSolver) {
  gen::TiesConfig cfg;
  cfg.num_applicants = 25;
  cfg.num_posts = 20;
  cfg.tie_prob = 0.5;
  cfg.seed = 11;
  const auto inst = gen::random_ties_instance(cfg);
  const auto reference = core::find_popular_matching_ties(inst);

  Engine engine({2, 1});
  const auto res = engine.submit(Request::popular(Mode::kSolve, inst)).get();
  ASSERT_EQ(res.matching.has_value(), reference.has_value());
  if (reference.has_value()) {
    EXPECT_EQ(res.status, Status::kOk);
    EXPECT_TRUE(*res.matching == *reference);
  }
}

TEST(Engine, StrictOnlyModesRejectTies) {
  gen::TiesConfig cfg;
  cfg.num_applicants = 10;
  cfg.num_posts = 8;
  cfg.tie_prob = 0.9;
  cfg.seed = 3;
  auto inst = gen::random_ties_instance(cfg);
  if (inst.strict_prefs()) GTEST_SKIP() << "seed produced no ties";
  Engine engine({1, 1});
  const auto res = engine.submit(Request::popular(Mode::kMaxCard, std::move(inst))).get();
  EXPECT_EQ(res.status, Status::kInvalid);
  EXPECT_NE(res.error.find("strict"), std::string::npos);
}

TEST(Engine, CheckReportsStatistics) {
  pram::Workspace ws;
  gen::SolvableConfig cfg;
  cfg.num_applicants = 30;
  cfg.num_posts = 90;
  cfg.seed = 5;
  const auto inst = gen::solvable_strict_instance(cfg);
  const auto m = core::find_popular_matching(inst, ws);
  ASSERT_TRUE(m.has_value());
  const auto count = core::count_popular_matchings(inst, ws);

  Engine engine({2, 1});
  const auto res = engine.submit(Request::popular(Mode::kCheck, inst)).get();
  ASSERT_EQ(res.status, Status::kOk);
  ASSERT_TRUE(res.check.has_value());
  EXPECT_EQ(res.check->applicants, inst.num_applicants());
  EXPECT_EQ(res.check->posts, inst.num_posts());
  EXPECT_TRUE(res.check->strict);
  EXPECT_TRUE(res.check->admits_popular);
  EXPECT_EQ(res.check->size, core::matching_size(inst, *m));
  EXPECT_EQ(res.check->count, count);
}

TEST(Engine, NextStableMatchesDirectCall) {
  pram::Workspace ws;
  const auto inst = gen::random_stable_instance(12, 21);
  const auto reference = stable::next_stable_matchings(inst, stable::man_optimal(inst), ws);

  Engine engine({2, 1});
  const auto res = engine.submit(Request::next_stable(inst)).get();
  ASSERT_EQ(res.status, Status::kOk);
  ASSERT_TRUE(res.next_stable.has_value());
  EXPECT_EQ(res.next_stable->is_woman_optimal, reference.is_woman_optimal);
  ASSERT_EQ(res.next_stable->rotations.size(), reference.rotations.size());
  for (std::size_t i = 0; i < reference.rotations.size(); ++i) {
    EXPECT_TRUE(res.next_stable->rotations[i] == reference.rotations[i]);
  }
}

TEST(Engine, ExpiredDeadlineSkipsSolve) {
  gen::SolvableConfig cfg;
  cfg.seed = 9;
  auto inst = gen::solvable_strict_instance(cfg);
  Engine engine({1, 1});
  auto request = Request::popular(Mode::kSolve, std::move(inst));
  request.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto res = engine.submit(std::move(request)).get();
  EXPECT_EQ(res.status, Status::kDeadlineExpired);
  EXPECT_FALSE(res.matching.has_value());
}

TEST(Engine, GenerousDeadlineSolves) {
  gen::SolvableConfig cfg;
  cfg.seed = 9;
  auto inst = gen::solvable_strict_instance(cfg);
  Engine engine({1, 1});
  auto request = Request::popular(Mode::kSolve, std::move(inst));
  request.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  const auto res = engine.submit(std::move(request)).get();
  EXPECT_EQ(res.status, Status::kOk);
}

TEST(Engine, MissingInstanceIsInvalid) {
  Engine engine({1, 1});
  Request request;
  request.mode = Mode::kSolve;
  const auto res = engine.submit(std::move(request)).get();
  EXPECT_EQ(res.status, Status::kInvalid);
}

TEST(Engine, StatsAccumulatePerMode) {
  gen::SolvableConfig cfg;
  cfg.seed = 23;
  const auto inst = gen::solvable_strict_instance(cfg);
  Engine engine({2, 1});
  std::vector<Request> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Request::popular(Mode::kSolve, inst));
  for (int i = 0; i < 3; ++i) requests.push_back(Request::popular(Mode::kCount, inst));
  for (auto& f : engine.submit_batch(std::move(requests))) f.get();
  engine.wait_idle();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.num_workers, 2);
  EXPECT_EQ(stats.per_mode[static_cast<std::size_t>(Mode::kSolve)].submitted, 6u);
  EXPECT_EQ(stats.per_mode[static_cast<std::size_t>(Mode::kSolve)].ok, 6u);
  EXPECT_EQ(stats.per_mode[static_cast<std::size_t>(Mode::kCount)].ok, 3u);
  EXPECT_EQ(stats.workspace_allocs_per_worker.size(), 2u);
  EXPECT_GT(stats.uptime_ns, 0u);
  // Some worker solved something, so some workspace warmed up.
  EXPECT_GT(stats.workspace_allocs_total, 0u);
}

TEST(Engine, DestructorDrainsQueuedRequests) {
  gen::SolvableConfig cfg;
  cfg.seed = 29;
  const auto inst = gen::solvable_strict_instance(cfg);
  std::vector<std::future<Result>> futures;
  {
    Engine engine({2, 1});
    for (int i = 0; i < 16; ++i) {
      futures.push_back(engine.submit(Request::popular(Mode::kSolve, inst)));
    }
  }  // destructor runs here
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);  // every future fulfilled, none broken
  }
}

TEST(ThreadBudget, SplitUsesTheBudget) {
  // Remainder folds back into extra workers when lanes floor to 1.
  EXPECT_EQ(ThreadBudget::split(8, 5).workers, 8);
  EXPECT_EQ(ThreadBudget::split(8, 5).lanes, 1);
  // Shallow queue: spare threads become lanes.
  EXPECT_EQ(ThreadBudget::split(8, 2).workers, 2);
  EXPECT_EQ(ThreadBudget::split(8, 2).lanes, 4);
  // Uniform grid bound: at most lanes - 1 threads unused.
  EXPECT_EQ(ThreadBudget::split(7, 2).total(), 6);
  EXPECT_EQ(ThreadBudget::single(6).workers, 1);
  EXPECT_EQ(ThreadBudget::single(6).lanes, 6);
  // A queue deeper than the budget puts all of it into workers (total x 1).
  EXPECT_EQ(ThreadBudget::split(6, 100).workers, 6);
  EXPECT_EQ(ThreadBudget::split(6, 100).lanes, 1);
  // Degenerate inputs clamp to one worker / one lane.
  EXPECT_EQ(ThreadBudget::split(4, 0).workers, 1);
  EXPECT_EQ(ThreadBudget::split(4, 0).lanes, 4);
  EXPECT_EQ(ThreadBudget::split(0, 3).total(), 1);
}

TEST(Engine, ModeNamesRoundTrip) {
  for (std::size_t i = 0; i < kNumModes; ++i) {
    const auto mode = static_cast<Mode>(i);
    const auto parsed = parse_mode(mode_name(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_mode("bogus").has_value());
}

}  // namespace
}  // namespace ncpm::engine
