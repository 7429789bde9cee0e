// Gale–Shapley deferred acceptance: stability, optimality per side, and the
// textbook lattice-extremes properties.

#include "stable/gale_shapley.hpp"

#include <gtest/gtest.h>

#include "gen/stable_generators.hpp"
#include "support/stable_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

using test::all_stable_matchings;
using test::blocking_pairs;
using test::dominates;
using test::is_stable;

TEST(GaleShapley, PaperInstanceBothSidesStable) {
  const auto inst = ncpm::test::fig5_instance();
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  EXPECT_TRUE(is_stable(inst, m0));
  EXPECT_TRUE(is_stable(inst, mz));
  EXPECT_TRUE(dominates(inst, m0, mz));
}

TEST(GaleShapley, SizeOneAndIdentical) {
  const auto one = StableInstance::from_lists({{0}}, {{0}});
  EXPECT_EQ(man_optimal(one).wife_of, (std::vector<std::int32_t>{0}));

  // All men share one list, all women share one list: unique stable matching.
  const auto inst = StableInstance::from_lists({{0, 1}, {0, 1}}, {{0, 1}, {0, 1}});
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  EXPECT_EQ(m0.wife_of, mz.wife_of);
  EXPECT_TRUE(is_stable(inst, m0));
}

class GaleShapleyRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaleShapleyRandom, ExtremesAreStableAndBracketTheLattice) {
  for (std::int32_t n : {2, 5, 9, 16, 33}) {
    const auto inst = gen::random_stable_instance(n, GetParam() * 100 + static_cast<std::uint64_t>(n));
    const auto m0 = man_optimal(inst);
    const auto mz = woman_optimal(inst);
    EXPECT_TRUE(is_stable(inst, m0)) << "n=" << n;
    EXPECT_TRUE(is_stable(inst, mz)) << "n=" << n;
    EXPECT_TRUE(dominates(inst, m0, mz)) << "n=" << n;
    EXPECT_TRUE(blocking_pairs(inst, m0).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaleShapleyRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(GaleShapley, ManOptimalDominatesEveryStableMatching) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = gen::random_stable_instance(7, seed);
    const auto m0 = man_optimal(inst);
    const auto mz = woman_optimal(inst);
    for (const auto& m : all_stable_matchings(inst)) {
      EXPECT_TRUE(dominates(inst, m0, m));
      EXPECT_TRUE(dominates(inst, m, mz));
    }
  }
}

TEST(Stability, DetectsPlantedBlockingPair) {
  const auto inst = ncpm::test::fig5_instance();
  auto m = ncpm::test::fig5_matching();
  // Swap two wives to break stability (the original matching is stable).
  std::swap(m.wife_of[0], m.wife_of[1]);
  const auto fixed = MarriageMatching::from_wife_of(m.wife_of);
  EXPECT_FALSE(is_stable(inst, fixed));
  EXPECT_FALSE(blocking_pairs(inst, fixed).empty());
}

TEST(Stability, SizeMismatchRejected) {
  const auto inst = gen::random_stable_instance(64, 3);
  const auto small = MarriageMatching::from_wife_of({1, 0});
  EXPECT_THROW(is_stable(inst, small), std::invalid_argument);
  EXPECT_THROW(blocking_pairs(inst, small), std::invalid_argument);
  // A matching whose two directions disagree in length is rejected too.
  auto lopsided = man_optimal(inst);
  lopsided.husband_of.pop_back();
  EXPECT_THROW(is_stable(inst, lopsided), std::invalid_argument);
}

TEST(MarriageMatching, ValidationRejectsSharedWife) {
  EXPECT_THROW(MarriageMatching::from_wife_of({0, 0}), std::invalid_argument);
  EXPECT_THROW(MarriageMatching::from_wife_of({0, 7}), std::out_of_range);
}

}  // namespace
}  // namespace ncpm::stable
