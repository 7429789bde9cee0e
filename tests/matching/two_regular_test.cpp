// NC perfect matching in unions of cycles (Algorithm 2's final phase).

#include "matching/two_regular.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace ncpm::matching {
namespace {

/// Build one cycle v0 - v1 - ... - v_{k-1} - v0 over the given vertex ids.
void add_cycle(const std::vector<std::int32_t>& vs, std::vector<std::int32_t>& eu,
               std::vector<std::int32_t>& ev) {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    eu.push_back(vs[i]);
    ev.push_back(vs[(i + 1) % vs.size()]);
  }
}

void expect_perfect_on(const std::vector<std::int32_t>& vs, const std::vector<std::int32_t>& eu,
                       const std::vector<std::int32_t>& ev,
                       const std::vector<std::int32_t>& chosen) {
  std::vector<int> cover(vs.size() + 64, 0);
  for (const auto e : chosen) {
    ++cover[static_cast<std::size_t>(eu[static_cast<std::size_t>(e)])];
    ++cover[static_cast<std::size_t>(ev[static_cast<std::size_t>(e)])];
  }
  for (const auto v : vs) {
    EXPECT_EQ(cover[static_cast<std::size_t>(v)], 1) << "vertex " << v;
  }
}

TEST(TwoRegular, SingleEvenCycle) {
  pram::Workspace ws;
  std::vector<std::int32_t> eu, ev;
  add_cycle({0, 1, 2, 3}, eu, ev);
  const auto result = two_regular_perfect_matching(4, eu, ev, ws);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 2u);
  expect_perfect_on({0, 1, 2, 3}, eu, ev, *result);
}

TEST(TwoRegular, OddCycleReturnsNullopt) {
  pram::Workspace ws;
  std::vector<std::int32_t> eu, ev;
  add_cycle({0, 1, 2}, eu, ev);
  EXPECT_FALSE(two_regular_perfect_matching(3, eu, ev, ws).has_value());
}

TEST(TwoRegular, DegreeViolationThrows) {
  pram::Workspace ws;
  // A path is not 2-regular.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  EXPECT_THROW(two_regular_perfect_matching(3, eu, ev, ws), std::invalid_argument);
}

TEST(TwoRegular, MultipleCyclesAndDeadEdges) {
  pram::Workspace ws;
  std::vector<std::int32_t> eu, ev;
  add_cycle({0, 1, 2, 3, 4, 5}, eu, ev);
  add_cycle({6, 7, 8, 9}, eu, ev);
  // Dead edges never reach this pass: Algorithm 2 compacts them away first.
  const auto result = two_regular_perfect_matching(10, eu, ev, ws);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 5u);
  expect_perfect_on({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, eu, ev, *result);
}

TEST(TwoRegular, TwoCycleOfParallelEdges) {
  pram::Workspace ws;
  // Two vertices joined by two parallel edges: a 2-cycle, matching picks one.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 0};
  const auto result = two_regular_perfect_matching(2, eu, ev, ws);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 1u);
}

TEST(TwoRegular, EmptyGraph) {
  pram::Workspace ws;
  const auto result = two_regular_perfect_matching(0, {}, {}, ws);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

class TwoRegularRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoRegularRandom, RandomEvenCycleUnionsGetPerfectMatchings) {
  pram::Workspace ws;
  std::mt19937_64 rng(GetParam());
  std::vector<std::int32_t> eu, ev;
  std::vector<std::int32_t> all;
  std::int32_t next_vertex = 0;
  for (int c = 0; c < 8; ++c) {
    const auto len = static_cast<std::int32_t>(2 * (1 + rng() % 6));  // even in [2, 12]
    std::vector<std::int32_t> vs(static_cast<std::size_t>(len));
    std::iota(vs.begin(), vs.end(), next_vertex);
    next_vertex += len;
    std::shuffle(vs.begin(), vs.end(), rng);
    add_cycle(vs, eu, ev);
    all.insert(all.end(), vs.begin(), vs.end());
  }
  const auto result =
      two_regular_perfect_matching(static_cast<std::size_t>(next_vertex), eu, ev, ws);
  ASSERT_TRUE(result.has_value());
  expect_perfect_on(all, eu, ev, *result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoRegularRandom, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace ncpm::matching
