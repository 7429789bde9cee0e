// Sequential rotation machinery (Definitions 7-8, the Algorithm 4 baseline):
// s_M, exposed rotations, elimination, and the Lemma 15 stability guarantee.

#include "stable/rotations.hpp"

#include <gtest/gtest.h>

#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "support/stable_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

using test::is_exposed_rotation;
using test::is_stable;
using test::strictly_dominates;

TEST(Rotations, SmValuesOfThePaperExample) {
  const auto inst = ncpm::test::fig5_instance();
  const auto m = ncpm::test::fig5_matching();
  // Figure 6's second column (0-indexed): s(m1)=w3->2, s(m2)=w6->5,
  // s(m3)=w1->0, s(m4)=w8->7, s(m5)=w2->1, s(m6)=w5->4, s(m7)=w5->4,
  // s(m8)=w2->1.
  const std::vector<std::int32_t> expected{2, 5, 0, 7, 1, 4, 4, 1};
  for (std::int32_t man = 0; man < 8; ++man) {
    EXPECT_EQ(s_m(inst, m, man), expected[static_cast<std::size_t>(man)]) << "m" << man + 1;
  }
}

TEST(Rotations, WomanOptimalExposesNoRotations) {
  // Note: s_M(m) itself may still exist for some men at the woman-optimal
  // matching (the closure claim of the paper's Lemma 17 only holds on the
  // Mz-relative vertex set D) — what characterises Mz is the absence of
  // exposed rotations, i.e. of cycles in H_M.
  const auto inst = ncpm::test::fig5_instance();
  const auto mz = woman_optimal(inst);
  EXPECT_TRUE(exposed_rotations_sequential(inst, mz).empty());
}

TEST(Rotations, PaperExampleExposesTwoRotations) {
  const auto inst = ncpm::test::fig5_instance();
  const auto m = ncpm::test::fig5_matching();
  auto rotations = exposed_rotations_sequential(inst, m);
  ASSERT_EQ(rotations.size(), 2u);
  std::sort(rotations.begin(), rotations.end(), [](const Rotation& a, const Rotation& b) {
    return a.pairs.front() < b.pairs.front();
  });
  // rho1 = (m1,w8)(m2,w3)(m4,w6): next(m1)=m2 via w3, next(m2)=m4 via w6,
  // next(m4)=m1 via w8.
  const Rotation rho1{{{0, 7}, {1, 2}, {3, 5}}};
  // rho2 = (m3,w5)(m6,w1).
  const Rotation rho2{{{2, 4}, {5, 0}}};
  EXPECT_EQ(rotations[0], rho1);
  EXPECT_EQ(rotations[1], rho2);
  EXPECT_TRUE(is_exposed_rotation(inst, m, rho1));
  EXPECT_TRUE(is_exposed_rotation(inst, m, rho2));
}

TEST(Rotations, EliminationProducesTheExpectedMatching) {
  const auto inst = ncpm::test::fig5_instance();
  const auto m = ncpm::test::fig5_matching();
  const Rotation rho{{{0, 7}, {1, 2}, {3, 5}}};
  const auto next = eliminate_rotation(m, rho);
  EXPECT_EQ(next.wife_of[0], 2);  // m1 -> w3
  EXPECT_EQ(next.wife_of[1], 5);  // m2 -> w6
  EXPECT_EQ(next.wife_of[3], 7);  // m4 -> w8
  EXPECT_EQ(next.wife_of[2], m.wife_of[2]);  // m3 untouched
  EXPECT_TRUE(is_stable(inst, next));  // Lemma 15 prerequisite
}

TEST(Rotations, EliminationValidation) {
  const auto m = ncpm::test::fig5_matching();
  EXPECT_THROW(eliminate_rotation(m, Rotation{{{0, 7}}}), std::invalid_argument);
  // Pair (0, 0) is not matched in m.
  EXPECT_THROW(eliminate_rotation(m, Rotation{{{0, 0}, {1, 2}}}), std::invalid_argument);
}

TEST(Rotations, CanonicalRotatesToSmallestMan) {
  const Rotation rho{{{5, 1}, {2, 3}, {7, 0}}};
  const auto canon = rho.canonical();
  EXPECT_EQ(canon.pairs.front(), (std::pair<std::int32_t, std::int32_t>{2, 3}));
  EXPECT_EQ(canon.pairs[1], (std::pair<std::int32_t, std::int32_t>{7, 0}));
  EXPECT_EQ(canon.pairs[2], (std::pair<std::int32_t, std::int32_t>{5, 1}));
}

class RotationsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RotationsRandom, ExposedRotationsValidateAndEliminateStably) {
  for (std::int32_t n : {3, 6, 10, 20}) {
    const auto inst = gen::random_stable_instance(n, GetParam() * 77 + static_cast<std::uint64_t>(n));
    MarriageMatching m = man_optimal(inst);
    // Walk the lattice to the bottom, validating every rotation on the way.
    for (int guard = 0; guard < 1000; ++guard) {
      const auto rotations = exposed_rotations_sequential(inst, m);
      if (rotations.empty()) break;
      for (const auto& rho : rotations) {
        EXPECT_TRUE(is_exposed_rotation(inst, m, rho));
        const auto next = eliminate_rotation(m, rho);
        EXPECT_TRUE(is_stable(inst, next));
        EXPECT_TRUE(strictly_dominates(inst, m, next));
      }
      m = eliminate_rotation(m, rotations.front());
    }
    EXPECT_EQ(m.wife_of, woman_optimal(inst).wife_of)
        << "rotation walk must end at the woman-optimal matching";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RotationsRandom, ::testing::Values(1, 2, 3, 4, 5, 6));

class AllRotationsChainInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllRotationsChainInvariance, EveryMaximalChainYieldsTheSameRotationSet) {
  // Gusfield-Irving Theorem 2.5.4: the rotations eliminated along any
  // maximal chain from M0 to Mz are exactly the rotations of the instance.
  // all_rotations takes the first exposed rotation each step; here we walk
  // alternative chains (last exposed rotation, middle one) and compare.
  const auto inst = gen::random_stable_instance(9, GetParam());
  const auto reference = all_rotations(inst);
  for (int pick_mode = 0; pick_mode < 2; ++pick_mode) {
    std::vector<Rotation> collected;
    MarriageMatching m = man_optimal(inst);
    while (true) {
      const auto exposed = exposed_rotations_sequential(inst, m);
      if (exposed.empty()) break;
      const auto& rho =
          pick_mode == 0 ? exposed.back() : exposed[exposed.size() / 2];
      collected.push_back(rho);
      m = eliminate_rotation(m, rho);
    }
    std::sort(collected.begin(), collected.end(),
              [](const Rotation& a, const Rotation& b) { return a.pairs < b.pairs; });
    EXPECT_EQ(collected, reference) << "pick_mode " << pick_mode;
  }
  // The rotation count also bounds the lattice walk length.
  EXPECT_LE(reference.size(),
            static_cast<std::size_t>(inst.size()) * static_cast<std::size_t>(inst.size()) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllRotationsChainInvariance,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(AllRotations, PaperInstanceHasFiveRotations) {
  // The Figure 5 instance has 8 stable matchings arranged as the down-sets
  // of a 5-rotation poset; every maximal chain from M0 to Mz has exactly 5
  // elimination steps (see examples/stable_lattice).
  const auto inst = ncpm::test::fig5_instance();
  EXPECT_EQ(all_rotations(inst).size(), 5u);
}

}  // namespace
}  // namespace ncpm::stable
