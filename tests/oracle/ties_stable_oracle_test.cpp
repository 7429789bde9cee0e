// Randomized oracle layer, ties and stable-marriage generators: the ties
// solver is checked against the AIKM characterization and tiny-instance
// brute force; Gale–Shapley outputs from the stable generators are checked
// against the literal no-blocking-pair definition.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/ties.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/stability.hpp"

namespace ncpm {
namespace {

constexpr std::uint64_t kSweepSize = 24;

class TiesOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Ties solver output always satisfies the AIKM characterization; the
// characterization itself is validated against brute force on tiny sizes.
TEST_P(TiesOracle, RandomTiesInstancesYieldCharacterizedMatchings) {
  std::uint64_t solved = 0;
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 20 + static_cast<std::int32_t>(round % 5) * 15;
    cfg.num_posts = 25 + static_cast<std::int32_t>(round % 4) * 15;
    cfg.list_min = 1;
    cfg.list_max = 5;
    cfg.tie_prob = 0.15 + (round % 4) * 0.2;
    cfg.seed = GetParam() * 10'000 + round;
    const auto inst = gen::random_ties_instance(cfg);
    const auto m = core::find_popular_matching_ties(inst);
    if (m.has_value()) {
      ++solved;
      EXPECT_TRUE(core::satisfies_ties_characterization(inst, *m)) << "seed " << cfg.seed;
      EXPECT_TRUE(core::is_valid_assignment(inst, *m)) << "seed " << cfg.seed;
      EXPECT_TRUE(core::is_applicant_complete(inst, *m)) << "seed " << cfg.seed;
    }
  }
  // Guard against a vacuous sweep: a solver that rejects everything must fail.
  EXPECT_GT(solved, 0u);
}

TEST_P(TiesOracle, TinyTiesInstancesMatchLiteralBruteForce) {
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 3 + static_cast<std::int32_t>(round % 3);
    cfg.num_posts = 3 + static_cast<std::int32_t>(round % 3);
    cfg.list_min = 1;
    cfg.list_max = 3;
    cfg.tie_prob = 0.4;
    cfg.seed = GetParam() * 10'000 + round;
    const auto inst = gen::random_ties_instance(cfg);
    const auto m = core::find_popular_matching_ties(inst);
    const auto all_popular = core::all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(m.has_value(), !all_popular.empty()) << "seed " << cfg.seed;
    if (m.has_value()) {
      EXPECT_TRUE(core::is_popular_bruteforce(inst, *m)) << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TiesOracle, ::testing::Values(1, 2, 3));

class StableOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Both deferred-acceptance outputs are literally stable (no blocking pair),
// and the man-optimal matching weakly dominates the woman-optimal one for
// every man (lattice extremes in the right order).
TEST_P(StableOracle, GaleShapleyOutputsAreStableLatticeExtremes) {
  pram::Workspace ws;
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    const auto n = 4 + static_cast<std::int32_t>(round % 6) * 4;
    const auto seed = GetParam() * 10'000 + round;
    const auto inst = gen::random_stable_instance(n, seed);
    const auto m0 = stable::man_optimal(inst);
    const auto mz = stable::woman_optimal(inst);
    EXPECT_TRUE(stable::is_stable(inst, m0, ws)) << "seed " << seed;
    EXPECT_TRUE(stable::is_stable(inst, mz, ws)) << "seed " << seed;
    EXPECT_TRUE(stable::blocking_pairs(inst, m0).empty()) << "seed " << seed;
    EXPECT_TRUE(stable::blocking_pairs(inst, mz).empty()) << "seed " << seed;
    for (std::int32_t man = 0; man < n; ++man) {
      EXPECT_LE(inst.man_rank_of(man, m0.wife_of[static_cast<std::size_t>(man)]),
                inst.man_rank_of(man, mz.wife_of[static_cast<std::size_t>(man)]))
          << "seed " << seed << " man " << man;
    }
  }
}

TEST_P(StableOracle, CyclicFamilyIsStableAtEverySize) {
  pram::Workspace ws;
  const auto n = 3 + static_cast<std::int32_t>(GetParam()) * 5;
  const auto inst = gen::cyclic_stable_instance(n);
  const auto m0 = stable::man_optimal(inst);
  const auto mz = stable::woman_optimal(inst);
  EXPECT_TRUE(stable::is_stable(inst, m0, ws));
  EXPECT_TRUE(stable::is_stable(inst, mz, ws));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StableOracle, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ncpm
