// Algorithm 4 (Theorem 16): the NC next-stable-matching enumeration must
// match the sequential rotation finder exactly, produce stable successors
// that are immediately dominated (Lemma 15), and walk the lattice from the
// man-optimal to the woman-optimal matching.

#include "stable/next_stable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/lattice.hpp"
#include "stable/stability.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

std::set<std::vector<std::pair<std::int32_t, std::int32_t>>> rotation_set(
    const std::vector<Rotation>& rotations) {
  std::set<std::vector<std::pair<std::int32_t, std::int32_t>>> out;
  for (const auto& rho : rotations) out.insert(rho.canonical().pairs);
  return out;
}

TEST(NextStable, WomanOptimalIsTerminal) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig5_instance();
  const auto result = next_stable_matchings(inst, woman_optimal(inst), ws);
  EXPECT_TRUE(result.is_woman_optimal);
  EXPECT_TRUE(result.rotations.empty());
  EXPECT_TRUE(result.successors.empty());
}

TEST(NextStable, UnstableInputRejected) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig5_instance();
  auto m = ncpm::test::fig5_matching();
  std::swap(m.wife_of[0], m.wife_of[1]);
  EXPECT_THROW(next_stable_matchings(inst, MarriageMatching::from_wife_of(m.wife_of), ws),
               std::invalid_argument);
}

TEST(NextStable, SizeOneInstance) {
  pram::Workspace ws;
  const auto inst = StableInstance::from_lists({{0}}, {{0}});
  const auto result = next_stable_matchings(inst, man_optimal(inst), ws);
  EXPECT_TRUE(result.is_woman_optimal);
}

struct Param {
  std::uint64_t seed;
  std::int32_t n;
};

class NextStableVsSequential : public ::testing::TestWithParam<Param> {};

TEST_P(NextStableVsSequential, RotationsMatchTheSequentialFinderEverywhere) {
  pram::Workspace ws;
  const auto [seed, n] = GetParam();
  const auto inst = gen::random_stable_instance(n, seed);
  // Breadth-first over the whole lattice, comparing at every node.
  std::set<std::vector<std::int32_t>> seen;
  std::vector<MarriageMatching> frontier{man_optimal(inst)};
  seen.insert(frontier.front().wife_of);
  std::size_t guard = 0;
  while (!frontier.empty()) {
    ASSERT_LT(++guard, 5000u);
    const MarriageMatching m = frontier.back();
    frontier.pop_back();
    const auto nc = next_stable_matchings(inst, m, ws);
    const auto seq = exposed_rotations_sequential(inst, m);
    EXPECT_EQ(rotation_set(nc.rotations), rotation_set(seq));
    EXPECT_EQ(nc.is_woman_optimal, seq.empty());
    EXPECT_EQ(nc.successors.size(), nc.rotations.size());
    for (std::size_t i = 0; i < nc.successors.size(); ++i) {
      const auto& succ = nc.successors[i];
      EXPECT_TRUE(is_stable(inst, succ, ws));
      EXPECT_TRUE(strictly_dominates(inst, m, succ));
      EXPECT_EQ(succ.wife_of, eliminate_rotation(m, nc.rotations[i]).wife_of);
      if (seen.insert(succ.wife_of).second) frontier.push_back(succ);
    }
  }
  EXPECT_TRUE(seen.count(woman_optimal(inst).wife_of) == 1)
      << "the lattice walk must reach Mz";
}

INSTANTIATE_TEST_SUITE_P(Lattices, NextStableVsSequential,
                         ::testing::Values(Param{1, 3}, Param{2, 4}, Param{3, 5}, Param{4, 6},
                                           Param{5, 7}, Param{6, 8}, Param{7, 8}, Param{8, 10}));

class Lemma15Check : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma15Check, SuccessorsAreImmediatelyDominated) {
  pram::Workspace ws;
  const auto inst = gen::random_stable_instance(6, GetParam());
  const auto all = all_stable_matchings(inst);
  for (const auto& m : all) {
    const auto nc = next_stable_matchings(inst, m, ws);
    for (const auto& succ : nc.successors) {
      EXPECT_TRUE(immediately_dominates(inst, m, succ, all))
          << "M \\ rho must be *immediately* dominated (Lemma 15)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma15Check, ::testing::Values(1, 2, 3, 4, 5));

TEST(NextStable, CyclicInstanceRotationsArePlentiful) {
  pram::Workspace ws;
  const auto inst = gen::cyclic_stable_instance(8);
  const auto m0 = man_optimal(inst);
  const auto result = next_stable_matchings(inst, m0, ws);
  EXPECT_FALSE(result.is_woman_optimal);
  EXPECT_GE(result.rotations.size(), 1u);
  pram::Workspace counted;
  next_stable_matchings(inst, m0, counted);
  const pram::NcCounters& counters = counted.counters();
  EXPECT_GT(counters.rounds, 0u);
}

TEST(NextStable, RepeatedApplicationReachesWomanOptimal) {
  pram::Workspace ws;
  for (const std::int32_t n : {5, 9, 14}) {
    const auto inst = gen::random_stable_instance(n, static_cast<std::uint64_t>(n) * 13);
    MarriageMatching m = man_optimal(inst);
    int guard = 0;
    while (true) {
      ASSERT_LT(++guard, 500);
      const auto result = next_stable_matchings(inst, m, ws);
      if (result.is_woman_optimal) break;
      m = result.successors.front();
    }
    EXPECT_EQ(m.wife_of, woman_optimal(inst).wife_of);
  }
}

}  // namespace
}  // namespace ncpm::stable
