// Switch selection checked without the margin machinery: every switch one
// menu() entry offers is applied alone and the result scored directly, by
// matching_profile under the two profile orders and by matching_size. The
// optimiser must apply each component's best switch, ties to the smallest
// key, and no switch where none beats leaving the component as it is.
// Switches of distinct components move distinct applicants, so equal
// matchings mean equal switch sets.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "support/profile_order.hpp"

namespace ncpm::core {
namespace {

using Choice = SwitchingEngine::Choice;

/// better(x, y): matching x strictly beats matching y under the objective.
using Better = std::function<bool(const matching::Matching&, const matching::Matching&)>;

Better better_for(const Instance& inst, Objective objective) {
  switch (objective) {
    case Objective::kMaxCardinality:
      return [&inst](const matching::Matching& x, const matching::Matching& y) {
        return matching_size(inst, x) > matching_size(inst, y);
      };
    case Objective::kRankMaximal:
      return [&inst](const matching::Matching& x, const matching::Matching& y) {
        return test::rank_maximal_less(matching_profile(inst, y), matching_profile(inst, x));
      };
    case Objective::kFair:
      return [&inst](const matching::Matching& x, const matching::Matching& y) {
        return test::fair_less(matching_profile(inst, x), matching_profile(inst, y));
      };
  }
  return {};
}

/// The first key of each profile order alone: rank-1 applicants for
/// rank-maximal, last resorts for fair. A selector that stopped after one
/// key would pick by this order.
Better first_key_for(const Instance& inst, Objective objective) {
  if (objective == Objective::kRankMaximal) {
    return [&inst](const matching::Matching& x, const matching::Matching& y) {
      return matching_profile(inst, x).at(0) > matching_profile(inst, y).at(0);
    };
  }
  return better_for(inst, Objective::kMaxCardinality);
}

/// Per menu entry, in ascending key order, the first switch that no later
/// one strictly beats — the best, ties to the smallest key — kept only if
/// it strictly beats the unswitched matching.
std::vector<Choice> expected_choices(const SwitchingEngine& engine, const matching::Matching& m,
                                     const Better& better, pram::Workspace& ws) {
  const auto menu = engine.menu();
  std::vector<Choice> expected;
  for (const auto& entry : menu.entries) {
    std::vector<Choice> candidates;
    if (entry.cycle_root != kNone) candidates.push_back({entry.cycle_root, true});
    for (const auto q : menu.starts_of(entry)) candidates.push_back({q, false});
    std::optional<Choice> best;
    matching::Matching best_matching = m;
    for (const Choice c : candidates) {
      const auto result = engine.apply(std::vector<Choice>{c}, ws);
      if (better(result, best_matching)) {
        best = c;
        best_matching = result;
      }
    }
    if (best.has_value()) expected.push_back(*best);
  }
  return expected;
}

std::vector<Instance> mid_size_instances() {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 100 + 60 * static_cast<std::int32_t>(seed % 6);
    cfg.num_posts = cfg.num_applicants * 2;
    cfg.list_min = 2;
    cfg.list_max = 6;
    cfg.all_f_fraction = 0.3;
    cfg.contention = 1.5 + 0.5 * static_cast<double>(seed % 3);
    cfg.seed = seed;
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 120 + 40 * static_cast<std::int32_t>(seed);
    cfg.num_posts = cfg.num_applicants + cfg.num_applicants / 2;
    cfg.list_min = 1;
    cfg.list_max = 5;
    cfg.seed = 900 + seed;
    instances.push_back(gen::random_strict_instance(cfg));
  }
  return instances;
}

TEST(SwitchSelection, PicksEachComponentsBestSwitchByDirectScoring) {
  pram::Workspace ws;
  std::size_t solved = 0;
  std::size_t chosen = 0;
  std::size_t declined = 0;
  std::size_t later_key_decides = 0;  // runs where one key alone picks differently
  for (const auto& inst : mid_size_instances()) {
    const ReducedGraph rg = build_reduced_graph(inst, ws);
    const auto m = find_popular_matching(inst, rg, ws);
    if (!m.has_value()) continue;
    ++solved;
    const SwitchingEngine engine(inst, rg, *m, ws);
    const std::size_t components = engine.menu().entries.size();
    for (const Objective objective :
         {Objective::kMaxCardinality, Objective::kRankMaximal, Objective::kFair}) {
      SCOPED_TRACE(testing::Message() << "applicants " << inst.num_applicants() << " objective "
                                      << static_cast<int>(objective));
      const auto want = expected_choices(engine, *m, better_for(inst, objective), ws);
      EXPECT_TRUE(optimize_popular(inst, rg, *m, objective, ws) == engine.apply(want, ws));
      chosen += want.size();
      declined += components - want.size();
      if (objective != Objective::kMaxCardinality) {
        const auto first_key_only =
            expected_choices(engine, *m, first_key_for(inst, objective), ws);
        if (!(engine.apply(first_key_only, ws) == engine.apply(want, ws))) ++later_key_decides;
      }
    }
  }
  EXPECT_GE(solved, 8u);
  EXPECT_GT(chosen, 0u) << "no component offered an improving switch";
  EXPECT_GT(declined, 0u) << "every component switched";
  EXPECT_GT(later_key_decides, 0u) << "the first key alone decided every component";
}

}  // namespace
}  // namespace ncpm::core
