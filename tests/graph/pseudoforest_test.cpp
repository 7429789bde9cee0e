// Section IV-A: the pointer-doubling cycle finder must agree with a
// sequential walk oracle on hand-built and random directed pseudoforests;
// the post-processing (roots, distances, lengths, ordered cycles) is
// validated against walks.

#include "graph/pseudoforest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
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

// The doublings are bounded by the largest weak component s, not by n. One
// large component (a tail of `tail` vertices into a cycle of `len`, or into
// a sink when len == 0) among many tiny ones puts the deepest tree vertex
// at exactly s - 1 steps from the cycle and the longest cycle at s.
struct BigParam {
  std::size_t len;
  std::size_t tail;
};

class PseudoforestOneLargeComponent : public ::testing::TestWithParam<BigParam> {};

TEST_P(PseudoforestOneLargeComponent, AgreesWithOracle) {
  const auto [len, tail] = GetParam();
  std::mt19937_64 rng(len * 131 + tail);
  DirectedPseudoforest pf;
  const std::size_t big = len + tail + (len == 0 ? 1 : 0);
  // Vertices 0..len-1 form the cycle (or vertex 0 is the sink); the tail is
  // one path hanging into it, so its far end is s - 1 steps away.
  pf.next.resize(big);
  for (std::size_t v = 0; v < len; ++v) pf.next[v] = static_cast<std::int32_t>((v + 1) % len);
  if (len == 0) pf.next[0] = pram::kNone;
  const std::size_t first_tail = len == 0 ? 1 : len;
  for (std::size_t v = first_tail; v < big; ++v) pf.next[v] = static_cast<std::int32_t>(v - 1);
  // Many tiny components: isolated sinks, self-loops, 2-cycles, v -> sink.
  for (int c = 0; c < 200; ++c) {
    const auto base = static_cast<std::int32_t>(pf.next.size());
    switch (rng() % 4) {
      case 0: pf.next.push_back(pram::kNone); break;
      case 1: pf.next.push_back(base); break;
      case 2: pf.next.insert(pf.next.end(), {base + 1, base}); break;
      default: pf.next.insert(pf.next.end(), {base + 1, pram::kNone}); break;
    }
  }
  // Shuffle the vertex ids so the large component is spread out.
  const std::size_t n = pf.size();
  std::vector<std::int32_t> id(n);
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  DirectedPseudoforest shuffled;
  shuffled.next.assign(n, pram::kNone);
  for (std::size_t v = 0; v < n; ++v) {
    if (pf.next[v] != pram::kNone) {
      shuffled.next[static_cast<std::size_t>(id[v])] = id[static_cast<std::size_t>(pf.next[v])];
    }
  }

  const auto oracle = oracle_on_cycle(shuffled);
  for (const int lanes : {1, 4}) {
    pram::Executor ex(lanes);
    pram::Workspace ws(ex);
    const auto analysis = analyze_cycles(shuffled, ws);
    EXPECT_EQ(analysis.on_cycle, oracle) << "lanes=" << lanes;
    EXPECT_EQ(cycle_members(shuffled, ws), oracle) << "lanes=" << lanes;
    // Every cycle is complete: its walk closes after cycle_length steps,
    // through vertices that all name the minimum id as root.
    for (const auto& cycle : analysis.cycles) {
      EXPECT_EQ(cycle[0], *std::min_element(cycle.begin(), cycle.end()));
      std::int32_t u = cycle[0];
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        const auto v = static_cast<std::size_t>(cycle[i]);
        EXPECT_EQ(u, cycle[i]);
        EXPECT_EQ(analysis.cycle_root[v], cycle[0]);
        EXPECT_EQ(analysis.cycle_length[v], static_cast<std::int64_t>(cycle.size()));
        u = shuffled.next[v];
      }
      EXPECT_EQ(u, cycle[0]);
    }
    std::size_t on = 0;
    for (const auto b : analysis.on_cycle) on += b;
    std::size_t listed = 0;
    for (const auto& cycle : analysis.cycles) listed += cycle.size();
    EXPECT_EQ(listed, on);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PseudoforestOneLargeComponent,
    ::testing::Values(BigParam{0, 63}, BigParam{0, 64}, BigParam{0, 100}, BigParam{1, 63},
                      BigParam{1, 64}, BigParam{2, 62}, BigParam{3, 61}, BigParam{64, 0},
                      BigParam{65, 0}, BigParam{100, 0}, BigParam{128, 0}, BigParam{7, 120},
                      BigParam{16, 48}));

}  // namespace
}  // namespace ncpm::graph
