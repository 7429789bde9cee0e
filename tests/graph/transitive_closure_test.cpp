// Transitive closure by repeated squaring vs a Floyd–Warshall oracle.

#include "graph/transitive_closure.hpp"

#include <gtest/gtest.h>

#include <random>

namespace ncpm::graph {
namespace {

std::vector<std::vector<bool>> floyd_warshall(std::size_t n,
                                              const std::vector<std::int32_t>& tail,
                                              const std::vector<std::int32_t>& head) {
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t j = 0; j < tail.size(); ++j) {
    reach[static_cast<std::size_t>(tail[j])][static_cast<std::size_t>(head[j])] = true;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  return reach;
}

TEST(TransitiveClosure, ChainReachesForwardOnly) {
  pram::Workspace ws;
  const std::vector<std::int32_t> tail{0, 1, 2};
  const std::vector<std::int32_t> head{1, 2, 3};
  const auto tc = transitive_closure(adjacency_matrix(4, tail, head), ws);
  EXPECT_TRUE(tc.get(0, 3));
  EXPECT_TRUE(tc.get(1, 3));
  EXPECT_FALSE(tc.get(3, 0));
  EXPECT_FALSE(tc.get(0, 0));  // strict closure: no cycle through 0
}

TEST(TransitiveClosure, CycleDiagonalDetectsCycles) {
  pram::Workspace ws;
  // 0 -> 1 -> 2 -> 0 plus tail 3 -> 0.
  const std::vector<std::int32_t> tail{0, 1, 2, 3};
  const std::vector<std::int32_t> head{1, 2, 0, 0};
  const auto tc = transitive_closure(adjacency_matrix(4, tail, head), ws);
  EXPECT_TRUE(tc.get(0, 0));
  EXPECT_TRUE(tc.get(1, 1));
  EXPECT_TRUE(tc.get(2, 2));
  EXPECT_FALSE(tc.get(3, 3));
}

TEST(TransitiveClosure, SelfLoop) {
  pram::Workspace ws;
  const std::vector<std::int32_t> tail{0};
  const std::vector<std::int32_t> head{0};
  const auto tc = transitive_closure(adjacency_matrix(2, tail, head), ws);
  EXPECT_TRUE(tc.get(0, 0));
  EXPECT_FALSE(tc.get(1, 1));
}

TEST(TransitiveClosure, NonSquareThrows) {
  pram::Workspace ws;
  linalg::BitMatrix m(2, 3);
  EXPECT_THROW(transitive_closure(m, ws), std::invalid_argument);
}

TEST(TransitiveClosure, RoundsAreLogarithmic) {
  const std::size_t n = 300;
  std::vector<std::int32_t> tail, head;
  for (std::size_t v = 0; v + 1 < n; ++v) {
    tail.push_back(static_cast<std::int32_t>(v));
    head.push_back(static_cast<std::int32_t>(v + 1));
  }
  pram::Workspace ws;
  transitive_closure(adjacency_matrix(n, tail, head), ws);
  const pram::NcCounters& counters = ws.counters();
  // ceil(log2 300) = 9 squarings, each counted once plus the OR round.
  EXPECT_LE(counters.rounds, 2 * 9 + 2);
}

class TransitiveClosureRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransitiveClosureRandom, AgreesWithFloydWarshall) {
  pram::Workspace ws;
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 60;
  std::vector<std::int32_t> tail, head;
  for (std::size_t j = 0; j < 2 * n; ++j) {
    tail.push_back(static_cast<std::int32_t>(rng() % n));
    head.push_back(static_cast<std::int32_t>(rng() % n));
  }
  const auto tc = transitive_closure(adjacency_matrix(n, tail, head), ws);
  const auto oracle = floyd_warshall(n, tail, head);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(tc.get(i, j), oracle[i][j]) << i << " -> " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitiveClosureRandom, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ncpm::graph
