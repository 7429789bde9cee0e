// NC round counts read from the workspace's counters: independent of the
// executor width and stable from run to run for every served mode, and
// pinned for the solve path.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "gen/generators.hpp"
#include "gen/stable_generators.hpp"
#include "pram/workspace.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

namespace ncpm::core {
namespace {

Instance strict_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 2000;
  cfg.num_posts = 5000;
  cfg.contention = 2.0;
  cfg.all_f_fraction = 0.2;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Rounds charged by `run` in a fresh workspace on `lanes` lanes.
std::uint64_t rounds_at(int lanes, const std::function<void(pram::Workspace&)>& run) {
  pram::Executor ex(lanes);
  pram::Workspace ws(ex);
  run(ws);
  return ws.counters().rounds;
}

void expect_lane_independent(const char* mode, std::uint64_t seed,
                             const std::function<void(pram::Workspace&)>& run) {
  const std::uint64_t ref = rounds_at(1, run);
  EXPECT_GT(ref, 0u) << mode << " seed " << seed;
  for (const int lanes : {1, 2, 4}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_EQ(rounds_at(lanes, run), ref) << mode << " seed " << seed << " lanes " << lanes;
    }
  }
}

TEST(NcCounters, RoundsAreLaneIndependent) {
  for (const std::uint64_t seed : {1, 2}) {
    const Instance inst = strict_instance(seed);
    expect_lane_independent("solve", seed, [&](pram::Workspace& ws) {
      ASSERT_TRUE(find_popular_matching(inst, ws).has_value());
    });
    expect_lane_independent("max-card", seed, [&](pram::Workspace& ws) {
      ASSERT_TRUE(find_max_card_popular(inst, ws).has_value());
    });
    expect_lane_independent("count", seed, [&](pram::Workspace& ws) {
      ASSERT_TRUE(count_popular_matchings(inst, ws).has_value());
    });
    expect_lane_independent("fair", seed, [&](pram::Workspace& ws) {
      ASSERT_TRUE(find_fair_popular(inst, ws).has_value());
    });
    expect_lane_independent("rank-maximal", seed, [&](pram::Workspace& ws) {
      ASSERT_TRUE(find_rank_maximal_popular(inst, ws).has_value());
    });
    const auto sinst = gen::random_stable_instance(200, seed + 1);
    const auto m0 = stable::man_optimal(sinst);
    expect_lane_independent("next-stable", seed, [&](pram::Workspace& ws) {
      (void)stable::next_stable_matchings(sinst, m0, ws);
    });
  }
}

/// The counters `run` charges to a fresh one-lane workspace.
pram::NcCounters counters_of(const std::function<void(pram::Workspace&)>& run) {
  pram::Executor serial(1);
  pram::Workspace ws(serial);
  run(ws);
  return ws.counters();
}

// Every composite mode reduces once: its rounds and work are exactly the
// solve's plus its second stage's on the G' the solve ran in, so no stage
// rebuilds G'.
TEST(NcCounters, CompositeModesBuildTheReducedGraphOnce) {
  const Instance inst = strict_instance(1);
  const auto solve = counters_of([&](pram::Workspace& ws) {
    ASSERT_TRUE(find_popular_matching(inst, ws).has_value());
  });
  /// The second stage's counters, run after Algorithm 1 on one G'.
  const auto stage = [&](const std::function<void(const ReducedGraph&, const matching::Matching&,
                                                  pram::Workspace&)>& second) {
    return counters_of([&](pram::Workspace& ws) {
      const ReducedGraph rg = build_reduced_graph(inst, ws);
      const auto m = find_popular_matching(inst, rg, ws);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(ws.counters().rounds, solve.rounds);
      EXPECT_EQ(ws.counters().work, solve.work);
      ws.counters().reset();
      second(rg, *m, ws);
    });
  };
  const auto expect_solve_plus = [&](const char* mode, const pram::NcCounters& whole,
                                     const pram::NcCounters& second) {
    EXPECT_EQ(whole.rounds, solve.rounds + second.rounds) << mode;
    EXPECT_EQ(whole.work, solve.work + second.work) << mode;
  };
  const auto optimal = [&](Objective objective) {
    return stage([&](const ReducedGraph& rg, const matching::Matching& m, pram::Workspace& ws) {
      (void)optimize_popular(inst, rg, m, objective, ws);
    });
  };
  expect_solve_plus("max-card", counters_of([&](pram::Workspace& ws) {
                      ASSERT_TRUE(find_max_card_popular(inst, ws).has_value());
                    }),
                    optimal(Objective::kMaxCardinality));
  expect_solve_plus("fair", counters_of([&](pram::Workspace& ws) {
                      ASSERT_TRUE(find_fair_popular(inst, ws).has_value());
                    }),
                    optimal(Objective::kFair));
  expect_solve_plus("rank-maximal", counters_of([&](pram::Workspace& ws) {
                      ASSERT_TRUE(find_rank_maximal_popular(inst, ws).has_value());
                    }),
                    optimal(Objective::kRankMaximal));
  expect_solve_plus("count", counters_of([&](pram::Workspace& ws) {
                      ASSERT_TRUE(count_popular_matchings(inst, ws).has_value());
                    }),
                    stage([&](const ReducedGraph& rg, const matching::Matching& m,
                              pram::Workspace& ws) { (void)count_popular_matchings(inst, rg, m, ws); }));
}

// The solve path's 1-lane depth and work on a fixed instance. Pinned:
// changes to the round plumbing must leave them where they are. (List
// ranking stops once converged, so its rounds follow the longest list of
// this instance, not ceil(log2 n) + 1.)
TEST(NcCounters, SolveGolden) {
  const Instance inst = strict_instance(1);
  pram::Executor serial(1);
  pram::Workspace ws(serial);
  ASSERT_TRUE(find_popular_matching(inst, ws).has_value());
  EXPECT_EQ(ws.counters().rounds, 32u);
  EXPECT_EQ(ws.counters().work, 118002u);
}

}  // namespace
}  // namespace ncpm::core
