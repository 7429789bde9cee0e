// Algorithm 4 (Theorem 16): the NC next-stable-matching enumeration must
// match the sequential rotation finder exactly, produce stable successors
// that are immediately dominated (Lemma 15), and walk the lattice from the
// man-optimal to the woman-optimal matching.

#include "stable/next_stable.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "support/stable_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::stable {
namespace {

using test::all_stable_matchings;
using test::blocking_pairs;
using test::immediately_dominates;
using test::is_stable;
using test::strictly_dominates;

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

TEST(NextStable, SizeMismatchRejected) {
  pram::Workspace ws;
  const auto inst = gen::random_stable_instance(64, 3);
  const auto small = MarriageMatching::from_wife_of({1, 0});
  EXPECT_THROW(next_stable_matchings(inst, small, ws), std::invalid_argument);
  EXPECT_THROW(exposed_rotations_sequential(inst, small), std::invalid_argument);
  auto lopsided = man_optimal(inst);
  lopsided.husband_of.pop_back();
  EXPECT_THROW(next_stable_matchings(inst, lopsided, ws), std::invalid_argument);
}

/// `first` followed by every other id of 0..n-1 in increasing order.
std::vector<std::int32_t> list_led_by(std::int32_t n, std::vector<std::int32_t> first) {
  for (std::int32_t x = 0; x < n; ++x) {
    if (std::find(first.begin(), first.end(), x) == first.end()) first.push_back(x);
  }
  return first;
}

/// 1, 2, ..., n-1 and then 0.
std::vector<std::int32_t> list_ending_in_zero(std::int32_t n) {
  std::vector<std::int32_t> list;
  for (std::int32_t x = 1; x < n; ++x) list.push_back(x);
  list.push_back(0);
  return list;
}

TEST(NextStable, BlockingPairInLateWindowRejected) {
  // Identity matching on n = 64. Man 0 lists women 1..63 before his wife;
  // every woman puts her husband first except the one at man 0's slot
  // `slot`, who puts man 0 first. So (0, slot + 1) is the only blocking
  // pair, and the only kept entry above man 0's wife lies in a window past
  // the first three ([0,1), [1,3), [3,7)).
  constexpr std::int32_t n = 64;
  for (const std::int32_t slot : {7, 20, 40, 62}) {
    const std::int32_t lover = slot + 1;
    std::vector<std::vector<std::int32_t>> men, women;
    std::vector<std::int32_t> identity;
    for (std::int32_t i = 0; i < n; ++i) {
      men.push_back(i == 0 ? list_ending_in_zero(n) : list_led_by(n, {i}));
      women.push_back(i == lover ? list_led_by(n, {0, i}) : list_led_by(n, {i}));
      identity.push_back(i);
    }
    ASSERT_EQ(men[0][static_cast<std::size_t>(slot)], lover);
    const auto inst = StableInstance::from_lists(men, women);
    const auto m = MarriageMatching::from_wife_of(identity);
    pram::Workspace ws;
    EXPECT_FALSE(is_stable(inst, m)) << "slot " << slot;
    EXPECT_EQ(blocking_pairs(inst, m),
              (std::vector<std::pair<std::int32_t, std::int32_t>>{{0, lover}}))
        << "slot " << slot;
    EXPECT_THROW(next_stable_matchings(inst, m, ws), std::invalid_argument) << "slot " << slot;
  }
}

TEST(NextStable, WorkFollowsScannedPrefix) {
  // Men stop reading at s_M(m). At the man-optimal matching it sits near
  // the top of most lists, so the work is far below the n^2 entries; at
  // the woman-optimal matching the men without one read their whole list,
  // and the work stays within n^2 plus the lower-order rounds.
  constexpr std::uint64_t n = 2048;
  const auto inst = gen::random_stable_instance(static_cast<std::int32_t>(n), 31);
  pram::Workspace at_m0;
  next_stable_matchings(inst, man_optimal(inst), at_m0);
  EXPECT_LE(at_m0.counters().work, n * n / 8);
  pram::Workspace at_mz;
  EXPECT_TRUE(next_stable_matchings(inst, woman_optimal(inst), at_mz).is_woman_optimal);
  EXPECT_LE(at_mz.counters().work, n * n + n * n / 10);

  // Doubling windows add O(log n) rounds, not O(n).
  const auto rounds_at = [](std::int32_t size) {
    const auto sized = gen::random_stable_instance(size, 31);
    pram::Workspace ws;
    next_stable_matchings(sized, man_optimal(sized), ws);
    return ws.counters().rounds;
  };
  EXPECT_LE(rounds_at(4096), rounds_at(256) + 64);
}

TEST(NextStable, SizeOneInstance) {
  pram::Workspace ws;
  const auto inst = StableInstance::from_lists({{0}}, {{0}});
  const auto result = next_stable_matchings(inst, man_optimal(inst), ws);
  EXPECT_TRUE(result.is_woman_optimal);
}

struct Param {
  std::uint64_t seed;
  // 64-bit, so the struct has no padding: CTest names these cases by the
  // parameter's bytes, which are then the same in every build.
  std::int64_t n;
};
static_assert(std::has_unique_object_representations_v<Param>);

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
      EXPECT_TRUE(is_stable(inst, succ));
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
