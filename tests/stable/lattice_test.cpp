// The stable-matching lattice helpers: dominance, enumeration, immediate
// domination.

#include "stable/lattice.hpp"

#include <gtest/gtest.h>

#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/stability.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

TEST(Lattice, DominanceIsReflexiveOnEqualAndAntisymmetric) {
  const auto inst = ncpm::test::fig5_instance();
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  EXPECT_TRUE(dominates(inst, m0, m0));
  EXPECT_FALSE(strictly_dominates(inst, m0, m0));
  EXPECT_TRUE(strictly_dominates(inst, m0, mz));
  EXPECT_FALSE(strictly_dominates(inst, mz, m0));
}

TEST(Lattice, EnumerationContainsExtremesAndOnlyStableMatchings) {
  pram::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = gen::random_stable_instance(6, seed);
    const auto all = all_stable_matchings(inst);
    ASSERT_FALSE(all.empty());
    bool has_m0 = false, has_mz = false;
    const auto m0 = man_optimal(inst);
    const auto mz = woman_optimal(inst);
    for (const auto& m : all) {
      EXPECT_TRUE(is_stable(inst, m, ws));
      has_m0 = has_m0 || m.wife_of == m0.wife_of;
      has_mz = has_mz || m.wife_of == mz.wife_of;
    }
    EXPECT_TRUE(has_m0);
    EXPECT_TRUE(has_mz);
  }
}

TEST(Lattice, CapIsEnforced) {
  const auto inst = gen::cyclic_stable_instance(10);
  EXPECT_THROW(all_stable_matchings(inst, 1), std::runtime_error);
}

TEST(Lattice, ImmediateDominationExcludesTransitiveSteps) {
  // Build a three-deep chain via rotations on a random instance that has
  // at least three lattice levels; cyclic instances always do.
  const auto inst = gen::cyclic_stable_instance(6);
  const auto all = all_stable_matchings(inst);
  const auto m0 = man_optimal(inst);
  const auto mz = woman_optimal(inst);
  ASSERT_GE(all.size(), 3u);
  EXPECT_FALSE(immediately_dominates(inst, m0, mz, all))
      << "Mz is below M0 but not immediately for a lattice with >= 3 levels";
}

TEST(Lattice, CyclicInstanceHasManyStableMatchings) {
  const auto inst = gen::cyclic_stable_instance(5);
  EXPECT_GE(all_stable_matchings(inst).size(), 5u);
}

}  // namespace
}  // namespace ncpm::stable
