// Bit-packed matrices: products vs naive oracles, GF(2) rank properties,
// and Lemma 6 (rank of the incidence matrix = n - #components) validated
// against the independent connected-components substrate.

#include "linalg/gf2_matrix.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/connected_components.hpp"
#include "linalg/incidence.hpp"

namespace ncpm::linalg {
namespace {

BitMatrix random_matrix(std::mt19937_64& rng, std::size_t rows, std::size_t cols,
                        double density = 0.5) {
  BitMatrix m(rows, cols);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (unif(rng) < density) m.set(i, j);
    }
  }
  return m;
}

TEST(BitMatrix, SetGetFlip) {
  BitMatrix m(2, 130);  // spans three words per row
  EXPECT_FALSE(m.get(1, 129));
  m.set(1, 129);
  EXPECT_TRUE(m.get(1, 129));
  m.flip(1, 129);
  EXPECT_FALSE(m.get(1, 129));
  m.set(0, 63);
  m.set(0, 64);
  EXPECT_TRUE(m.get(0, 63));
  EXPECT_TRUE(m.get(0, 64));
  EXPECT_FALSE(m.get(0, 62));
}

TEST(BitMatrix, IdentityDiagonal) {
  pram::Workspace ws;
  const auto id = BitMatrix::identity(5);
  EXPECT_TRUE(id.any_diagonal(ws));
  const auto diag = id.diagonal(ws);
  EXPECT_EQ(diag, (std::vector<std::uint8_t>{1, 1, 1, 1, 1}));
  EXPECT_EQ(id.gf2_rank(ws), 5u);
}

TEST(BitMatrix, ProductsAgainstNaive) {
  pram::Workspace ws;
  std::mt19937_64 rng(3);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 20 + static_cast<std::size_t>(round) * 13;
    const auto a = random_matrix(rng, n, n, 0.2);
    const auto b = random_matrix(rng, n, n, 0.2);
    const auto bp = bool_product(a, b, ws);
    const auto gp = gf2_product(a, b, ws);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        bool any = false, parity = false;
        for (std::size_t k = 0; k < n; ++k) {
          const bool term = a.get(i, k) && b.get(k, j);
          any = any || term;
          parity = parity != term;
        }
        ASSERT_EQ(bp.get(i, j), any) << i << "," << j;
        ASSERT_EQ(gp.get(i, j), parity) << i << "," << j;
      }
    }
  }
}

TEST(BitMatrix, ProductShapeMismatchThrows) {
  pram::Workspace ws;
  const BitMatrix a(2, 3), b(4, 2);
  EXPECT_THROW(bool_product(a, b, ws), std::invalid_argument);
}

TEST(BitMatrix, RankOfSingularAndDuplicatedRows) {
  pram::Workspace ws;
  BitMatrix m(3, 3);
  m.set(0, 0);
  m.set(0, 1);
  m.set(1, 0);
  m.set(1, 1);  // row 1 duplicates row 0
  m.set(2, 2);
  EXPECT_EQ(m.gf2_rank(ws), 2u);
}

TEST(BitMatrix, RankIsInvariantUnderRowXor) {
  pram::Workspace ws;
  std::mt19937_64 rng(17);
  for (int round = 0; round < 10; ++round) {
    auto m = random_matrix(rng, 24, 31, 0.4);
    const auto base = m.gf2_rank(ws);
    // XOR row 3 into row 7 — an elementary operation, rank preserved.
    auto dst = m.row(7);
    auto src = m.row(3);
    for (std::size_t w = 0; w < m.words_per_row(); ++w) dst[w] ^= src[w];
    EXPECT_EQ(m.gf2_rank(ws), base);
  }
}

TEST(Incidence, Lemma6OnHandBuiltGraphs) {
  pram::Workspace ws;
  // Triangle + isolated vertex: rank = 4 - 2 = 2.
  const std::vector<std::int32_t> eu{0, 1, 2};
  const std::vector<std::int32_t> ev{1, 2, 0};
  EXPECT_EQ(incidence_matrix(4, eu, ev).gf2_rank(ws), 2u);
  EXPECT_EQ(component_count_by_rank(4, eu, ev, {}, ws), 2u);
}

TEST(Incidence, SelfLoopColumnIsZero) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0};
  const std::vector<std::int32_t> ev{0};
  const auto m = incidence_matrix(2, eu, ev);
  EXPECT_FALSE(m.get(0, 0));
  EXPECT_EQ(component_count_by_rank(2, eu, ev, {}, ws), 2u);
}

TEST(Incidence, AliveMaskDropsColumns) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  const std::vector<std::uint8_t> alive{1, 0};
  EXPECT_EQ(component_count_by_rank(3, eu, ev, alive, ws), 2u);
}

class Lemma6Random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma6Random, RankCountsComponentsLikeCc) {
  pram::Workspace ws;
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 40;
  const std::size_t m = rng() % 80;
  std::vector<std::int32_t> eu(m), ev(m);
  for (std::size_t j = 0; j < m; ++j) {
    eu[j] = static_cast<std::int32_t>(rng() % n);
    ev[j] = static_cast<std::int32_t>(rng() % n);
  }
  const auto by_rank = component_count_by_rank(n, eu, ev, {}, ws);
  const auto by_cc = graph::connected_components(n, eu, ev, {}, ws).count;
  EXPECT_EQ(by_rank, static_cast<std::size_t>(by_cc));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma6Random, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ncpm::linalg
