// Half-edge maximal-path machinery: successor chains, rankings and degree
// bookkeeping on paths, stars and cycles with alive masks.

#include "graph/path_decomposition.hpp"

#include <gtest/gtest.h>

namespace ncpm::graph {
namespace {

TEST(HalfEdge, SourceTargetRevEdge) {
  pram::Workspace ws;
  // Edge 0 = {0, 1}, edge 1 = {1, 2}.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  const std::vector<std::uint8_t> alive{1, 1};
  const HalfEdgeStructure s(3, eu, ev, alive, ws);
  EXPECT_EQ(s.source(0), 0);
  EXPECT_EQ(s.target(0), 1);
  EXPECT_EQ(s.source(1), 1);
  EXPECT_EQ(s.target(1), 0);
  EXPECT_EQ(HalfEdgeStructure::rev(0), 1);
  EXPECT_EQ(HalfEdgeStructure::edge_of(3), 1);
  EXPECT_EQ(s.out_of(1, 1), 2);
  EXPECT_EQ(s.out_of(2, 1), 3);
}

TEST(HalfEdge, RebuildReusesTheStructureAcrossGraphs) {
  pram::Workspace ws;
  HalfEdgeStructure s;
  // First build: the path 0 - 1 - 2 - 3.
  {
    const std::vector<std::int32_t> eu{0, 1, 2};
    const std::vector<std::int32_t> ev{1, 2, 3};
    const std::vector<std::uint8_t> alive{1, 1, 1};
    s.rebuild(4, eu, ev, alive, ws);
    EXPECT_EQ(s.n_edges(), 3u);
    EXPECT_EQ(s.degree(1), 2);
    EXPECT_EQ(s.ranking().head[0], 4);
  }
  // Rebuild in place over a smaller graph with a mask; results must match a
  // from-scratch construction exactly.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  const std::vector<std::uint8_t> alive{1, 0};
  s.rebuild(3, eu, ev, alive, ws);
  const HalfEdgeStructure fresh(3, eu, ev, alive, ws);
  ASSERT_EQ(s.n_edges(), fresh.n_edges());
  for (std::int32_t v = 0; v < 3; ++v) EXPECT_EQ(s.degree(v), fresh.degree(v));
  for (std::size_t h = 0; h < s.n_half_edges(); ++h) {
    EXPECT_EQ(s.succ()[h], fresh.succ()[h]) << "half-edge " << h;
    EXPECT_EQ(s.ranking().rank[h], fresh.ranking().rank[h]) << "half-edge " << h;
    EXPECT_EQ(s.ranking().head[h], fresh.ranking().head[h]) << "half-edge " << h;
  }
}

TEST(HalfEdge, PathChainsThroughDegreeTwoVertices) {
  pram::Workspace ws;
  // Path 0 - 1 - 2 - 3: vertices 1, 2 have degree 2.
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 3};
  const std::vector<std::uint8_t> alive{1, 1, 1};
  const HalfEdgeStructure s(4, eu, ev, alive, ws);
  // The rightward traversal 0->1->2->3: half-edges 0, 2, 4.
  EXPECT_EQ(s.succ()[0], 2);
  EXPECT_EQ(s.succ()[2], 4);
  EXPECT_EQ(s.succ()[4], 4);  // target 3 has degree 1: terminal
  EXPECT_EQ(s.ranking().rank[0], 2);
  EXPECT_EQ(s.ranking().head[0], 4);
  EXPECT_TRUE(s.ranking().reaches_terminal[0]);
  // The leftward traversal from 3: half-edges 5, 3, 1.
  EXPECT_EQ(s.succ()[5], 3);
  EXPECT_EQ(s.succ()[3], 1);
  EXPECT_EQ(s.ranking().rank[5], 2);
}

TEST(HalfEdge, StarStopsAtCenter) {
  pram::Workspace ws;
  // Star: center 0 with leaves 1, 2, 3 (degree 3).
  const std::vector<std::int32_t> eu{0, 0, 0};
  const std::vector<std::int32_t> ev{1, 2, 3};
  const std::vector<std::uint8_t> alive{1, 1, 1};
  const HalfEdgeStructure s(4, eu, ev, alive, ws);
  EXPECT_EQ(s.degree(0), 3);
  // Every traversal into the center terminates (degree != 2).
  EXPECT_EQ(s.succ()[1], 1);  // 1 -> 0, stop
  EXPECT_EQ(s.succ()[0], 0);  // 0 -> 1, leaf degree 1, stop
}

TEST(HalfEdge, CycleNeverTerminates) {
  pram::Workspace ws;
  // Triangle 0-1-2.
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 0};
  const std::vector<std::uint8_t> alive{1, 1, 1};
  const HalfEdgeStructure s(3, eu, ev, alive, ws);
  for (std::size_t h = 0; h < 6; ++h) {
    EXPECT_FALSE(s.ranking().reaches_terminal[h]) << "half-edge " << h;
  }
}

TEST(HalfEdge, DeadEdgesExcludedFromDegrees) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 3};
  const std::vector<std::uint8_t> alive{1, 0, 1};
  const HalfEdgeStructure s(4, eu, ev, alive, ws);
  EXPECT_EQ(s.degree(1), 1);
  EXPECT_EQ(s.degree(2), 1);
  EXPECT_FALSE(s.edge_alive(1));
  // With edge 1 dead, traversal 0->1 terminates at 1.
  EXPECT_EQ(s.succ()[0], 0);
}

TEST(HalfEdge, SelfLoopRejected) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0};
  const std::vector<std::int32_t> ev{0};
  const std::vector<std::uint8_t> alive{1};
  EXPECT_THROW(HalfEdgeStructure(1, eu, ev, alive, ws), std::invalid_argument);
}

TEST(HalfEdge, OutOfRangeRejected) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0};
  const std::vector<std::int32_t> ev{7};
  const std::vector<std::uint8_t> alive{1};
  EXPECT_THROW(HalfEdgeStructure(2, eu, ev, alive, ws), std::invalid_argument);
}

TEST(HalfEdge, IncidentListsMatchDegrees) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0, 0, 1};
  const std::vector<std::int32_t> ev{1, 2, 2};
  const std::vector<std::uint8_t> alive{1, 1, 1};
  const HalfEdgeStructure s(3, eu, ev, alive, ws);
  for (std::int32_t v = 0; v < 3; ++v) {
    EXPECT_EQ(static_cast<std::int64_t>(s.incident(v).size()), s.degree(v));
  }
  // Vertex 0's incident edges are 0 and 1 in some order.
  const auto inc = s.incident(0);
  EXPECT_EQ(std::min(inc[0], inc[1]), 0);
  EXPECT_EQ(std::max(inc[0], inc[1]), 1);
}

}  // namespace
}  // namespace ncpm::graph
