// Half-edge maximal-path machinery (AliveEdgePaths): successor chains,
// rankings and degree bookkeeping on paths, stars and cycles, and in-place
// rebuilds over changing edge sets.

#include "graph/path_decomposition.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ncpm::graph {
namespace {

TEST(HalfEdge, SourceTargetRevEdge) {
  pram::Workspace ws;
  // Edge 0 = {0, 1}, edge 1 = {1, 2}.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  AliveEdgePaths s(3, eu.size(), ws);
  s.rebuild(eu, ev, ws);
  EXPECT_EQ(s.n_half_edges(), 4u);
  EXPECT_EQ(s.source(0), 0);
  EXPECT_EQ(s.target(0), 1);
  EXPECT_EQ(s.source(1), 1);
  EXPECT_EQ(s.target(1), 0);
  EXPECT_EQ(s.source(3), 2);
  EXPECT_EQ(s.target(3), 1);
  EXPECT_EQ(AliveEdgePaths::rev(0), 1);
  EXPECT_EQ(AliveEdgePaths::rev(3), 2);
}

TEST(HalfEdge, PathChainsThroughDegreeTwoVertices) {
  pram::Workspace ws;
  // Path 0 - 1 - 2 - 3: vertices 1, 2 have degree 2.
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 3};
  AliveEdgePaths s(4, eu.size(), ws);
  s.rebuild(eu, ev, ws);
  EXPECT_EQ(s.degree(1), 2);
  // The rightward traversal 0->1->2->3: half-edges 0, 2, 4.
  EXPECT_EQ(s.succ()[0], 2);
  EXPECT_EQ(s.succ()[2], 4);
  EXPECT_EQ(s.succ()[4], 4);  // target 3 has degree 1: terminal
  EXPECT_EQ(s.rank()[0], 2);
  EXPECT_EQ(s.head()[0], 4);
  EXPECT_TRUE(s.reaches_terminal()[0]);
  // The leftward traversal from 3: half-edges 5, 3, 1.
  EXPECT_EQ(s.succ()[5], 3);
  EXPECT_EQ(s.succ()[3], 1);
  EXPECT_EQ(s.rank()[5], 2);
  EXPECT_EQ(s.head()[5], 1);
}

TEST(HalfEdge, StarStopsAtCenter) {
  pram::Workspace ws;
  // Star: center 0 with leaves 1, 2, 3 (degree 3).
  const std::vector<std::int32_t> eu{0, 0, 0};
  const std::vector<std::int32_t> ev{1, 2, 3};
  AliveEdgePaths s(4, eu.size(), ws);
  s.rebuild(eu, ev, ws);
  EXPECT_EQ(s.degree(0), 3);
  // Every traversal into the center terminates (degree != 2).
  EXPECT_EQ(s.succ()[1], 1);  // 1 -> 0, stop
  EXPECT_EQ(s.succ()[0], 0);  // 0 -> 1, leaf degree 1, stop
  for (std::size_t h = 0; h < 6; ++h) {
    EXPECT_EQ(s.rank()[h], 0) << "half-edge " << h;
    EXPECT_TRUE(s.reaches_terminal()[h]) << "half-edge " << h;
  }
}

TEST(HalfEdge, CycleNeverTerminates) {
  pram::Workspace ws;
  // Triangle 0-1-2.
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 0};
  AliveEdgePaths s(3, eu.size(), ws);
  s.rebuild(eu, ev, ws);
  for (std::size_t h = 0; h < 6; ++h) {
    EXPECT_NE(s.succ()[h], static_cast<std::int32_t>(h)) << "half-edge " << h;
    EXPECT_FALSE(s.reaches_terminal()[h]) << "half-edge " << h;
  }
}

// One object rebuilt over a larger edge set and then a smaller one must
// equal a fresh object built over the smaller set. The rebuild resets
// per-vertex state only at the endpoints of the current edges, so stale
// degrees and incidence slots from the first build must never leak.
TEST(HalfEdge, RebuildReusesTheStructureAcrossGraphs) {
  pram::Workspace ws;
  AliveEdgePaths s(6, 5, ws);
  // First build: the path 0 - 1 - 2 - 3 - 4 plus the pendant edge 2 - 5,
  // so vertex 2 has degree 3 and vertices 1 and 3 hold incidence slots.
  const std::vector<std::int32_t> big_u{0, 1, 2, 3, 2};
  const std::vector<std::int32_t> big_v{1, 2, 3, 4, 5};
  s.rebuild(big_u, big_v, ws);
  ASSERT_EQ(s.n_edges(), 5u);
  EXPECT_EQ(s.degree(2), 3);
  EXPECT_EQ(s.head()[0], 2);  // 0 -> 1 -> 2 stops at the degree-3 vertex

  // Second build: the path 3 - 2 - 5 - 1 over other edge ids.
  const std::vector<std::int32_t> small_u{2, 5, 3};
  const std::vector<std::int32_t> small_v{5, 1, 2};
  s.rebuild(small_u, small_v, ws);
  AliveEdgePaths fresh(6, small_u.size(), ws);
  fresh.rebuild(small_u, small_v, ws);
  ASSERT_EQ(s.n_edges(), fresh.n_edges());
  for (const std::int32_t v : {1, 2, 3, 5}) {
    EXPECT_EQ(s.degree(v), fresh.degree(v)) << "vertex " << v;
  }
  EXPECT_EQ(s.degree(2), 2);
  for (std::size_t h = 0; h < s.n_half_edges(); ++h) {
    EXPECT_EQ(s.succ()[h], fresh.succ()[h]) << "half-edge " << h;
    EXPECT_EQ(s.head()[h], fresh.head()[h]) << "half-edge " << h;
    EXPECT_EQ(s.rank()[h], fresh.rank()[h]) << "half-edge " << h;
    EXPECT_EQ(s.reaches_terminal()[h], fresh.reaches_terminal()[h]) << "half-edge " << h;
  }
  // From 3 the traversal runs 3 -> 2 -> 5 -> 1: half-edges 4, 0, 2.
  EXPECT_EQ(s.rank()[4], 2);
  EXPECT_EQ(s.head()[4], 2);
}

}  // namespace
}  // namespace ncpm::graph
