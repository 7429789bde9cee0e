// Section IV-A: the pointer-doubling cycle finder must agree with a
// sequential walk oracle on hand-built and random directed pseudoforests;
// the post-processing (roots, distances, lengths, ordered cycles) is
// validated against walks.

#include "graph/pseudoforest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace ncpm::graph {
namespace {

std::vector<std::uint8_t> oracle_on_cycle(const DirectedPseudoforest& pf) {
  const std::size_t n = pf.size();
  std::vector<std::uint8_t> on(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    // v is on a cycle iff walking n steps from v returns to v at some point.
    std::int32_t u = static_cast<std::int32_t>(v);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t nx = pf.next[static_cast<std::size_t>(u)];
      if (nx == pram::kNone) {
        u = pram::kNone;
        break;
      }
      u = nx;
      if (u == static_cast<std::int32_t>(v)) {
        on[v] = 1;
        break;
      }
    }
  }
  return on;
}

TEST(Pseudoforest, SingleCycle) {
  pram::Workspace ws;
  DirectedPseudoforest pf{{1, 2, 0}};
  const auto on = cycle_members(pf, ws);
  EXPECT_EQ(on, (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_EQ(on, oracle_on_cycle(pf));
}

TEST(Pseudoforest, TreeIntoSinkHasNoCycle) {
  pram::Workspace ws;
  // 0 -> 1 -> 2(sink), 3 -> 1.
  DirectedPseudoforest pf{{1, 2, pram::kNone, 1}};
  const auto on = cycle_members(pf, ws);
  EXPECT_EQ(on, (std::vector<std::uint8_t>{0, 0, 0, 0}));
  EXPECT_EQ(on, oracle_on_cycle(pf));
}

TEST(Pseudoforest, SelfLoopIsACycleOfLengthOne) {
  pram::Workspace ws;
  DirectedPseudoforest pf{{0, pram::kNone}};
  const auto on = cycle_members(pf, ws);
  EXPECT_EQ(on, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_EQ(on, oracle_on_cycle(pf));
}

TEST(Pseudoforest, TwoCycleWithTails) {
  pram::Workspace ws;
  // 0 <-> 1, tails 2 -> 0, 3 -> 2; separate sink 4.
  DirectedPseudoforest pf{{1, 0, 0, 2, pram::kNone}};
  const auto on = cycle_members(pf, ws);
  EXPECT_EQ(on, (std::vector<std::uint8_t>{1, 1, 0, 0, 0}));
  EXPECT_EQ(on, oracle_on_cycle(pf));
}

TEST(Pseudoforest, AnalyzeOrdersCyclesFromRoots) {
  pram::Workspace ws;
  // Cycle 2 -> 5 -> 3 -> 2 and cycle 0 -> 1 -> 0; 4 leads into the first.
  DirectedPseudoforest pf{{1, 0, 5, 2, 2, 3}};
  const auto analysis = analyze_cycles(pf, ws);
  ASSERT_EQ(analysis.cycles.size(), 2u);
  EXPECT_EQ(analysis.cycles[0], (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(analysis.cycles[1], (std::vector<std::int32_t>{2, 5, 3}));
  EXPECT_EQ(analysis.cycle_length[2], 3);
  EXPECT_EQ(analysis.cycle_length[0], 2);
  EXPECT_EQ(analysis.dist_to_root[2], 0);
  EXPECT_EQ(analysis.dist_to_root[5], 2);  // 5 -> 3 -> 2
  EXPECT_EQ(analysis.dist_to_root[3], 1);
  // Components carry min-id labels; 4 belongs to the 3-cycle's component.
  EXPECT_EQ(analysis.component[4], analysis.component[2]);
  EXPECT_NE(analysis.component[0], analysis.component[2]);
}

TEST(Pseudoforest, OutOfRangeSuccessorThrows) {
  pram::Workspace ws;
  DirectedPseudoforest pf{{5}};
  EXPECT_THROW(analyze_cycles(pf, ws), std::invalid_argument);
  EXPECT_THROW(cycle_members(pf, ws), std::invalid_argument);
}

TEST(Pseudoforest, EmptyGraph) {
  pram::Workspace ws;
  DirectedPseudoforest pf{{}};
  const auto analysis = analyze_cycles(pf, ws);
  EXPECT_TRUE(analysis.cycles.empty());
}

struct PfParam {
  std::uint64_t seed;
  std::size_t n;
  double sink_prob;
};

class PseudoforestRandom : public ::testing::TestWithParam<PfParam> {};

TEST_P(PseudoforestRandom, AllMethodsAgreeWithOracle) {
  pram::Workspace ws;
  const auto [seed, n, sink_prob] = GetParam();
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  DirectedPseudoforest pf;
  pf.next.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    pf.next[v] = unif(rng) < sink_prob ? pram::kNone : static_cast<std::int32_t>(rng() % n);
  }
  // Both entry points, the bare mask and the full analysis, match the walk.
  const auto oracle = oracle_on_cycle(pf);
  EXPECT_EQ(cycle_members(pf, ws), oracle);
  EXPECT_EQ(analyze_cycles(pf, ws).on_cycle, oracle);
}

INSTANTIATE_TEST_SUITE_P(RandomPseudoforests, PseudoforestRandom,
                         ::testing::Values(PfParam{1, 8, 0.3}, PfParam{2, 20, 0.1},
                                           PfParam{3, 40, 0.5}, PfParam{4, 60, 0.0},
                                           PfParam{5, 33, 0.25}, PfParam{6, 50, 0.9}));

class PseudoforestAnalysisRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PseudoforestAnalysisRandom, DistancesAndLengthsMatchWalks) {
  pram::Workspace ws;
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 120;
  DirectedPseudoforest pf;
  pf.next.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    pf.next[v] = (rng() % 10 == 0) ? pram::kNone : static_cast<std::int32_t>(rng() % n);
  }
  const auto analysis = analyze_cycles(pf, ws);
  for (const auto& cycle : analysis.cycles) {
    ASSERT_FALSE(cycle.empty());
    const std::int32_t root = cycle[0];
    EXPECT_EQ(root, *std::min_element(cycle.begin(), cycle.end()));
    // Walking the cycle from the root matches the stored order and distances.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const auto v = static_cast<std::size_t>(cycle[i]);
      EXPECT_TRUE(analysis.on_cycle[v]);
      EXPECT_EQ(analysis.cycle_root[v], root);
      EXPECT_EQ(analysis.cycle_length[v], static_cast<std::int64_t>(cycle.size()));
      // dist_to_root[v] = steps from v to root = cycle length - position.
      const auto expected =
          i == 0 ? 0 : static_cast<std::int64_t>(cycle.size()) - static_cast<std::int64_t>(i);
      EXPECT_EQ(analysis.dist_to_root[v], expected);
      const std::int32_t succ = pf.next[v];
      EXPECT_EQ(succ, cycle[(i + 1) % cycle.size()]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PseudoforestAnalysisRandom, ::testing::Values(10, 20, 30, 40));

}  // namespace
}  // namespace ncpm::graph
