#pragma once
// Bit-packed matrices over GF(2) / the boolean semiring.
//
// Two of the paper's Section IV-A building blocks are matrix computations:
//   * Theorem 5 (JáJá): transitive closure via O(log n) matrix squarings —
//     served by `bool_product` (OR-AND semiring).
//   * Theorem 7 (Mulmuley) + Lemma 6: cycle detection via the rank of the
//     graph incidence matrix — served by `gf2_rank` (XOR-AND field GF(2)).
//     Over GF(2) the unoriented incidence matrix of *any* multigraph has
//     rank n - #components, which is exactly the Lemma 6 use site.
//
// Rows are packed 64 entries per word; products parallelise over rows and
// the rank elimination parallelises over rows per pivot column.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pram/workspace.hpp"

namespace ncpm::linalg {

class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols);

  static BitMatrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  bool get(std::size_t r, std::size_t c) const {
    return ((row_word(r, c >> 6) >> (c & 63U)) & 1U) != 0;
  }
  void set(std::size_t r, std::size_t c, bool value = true) {
    const std::uint64_t mask = std::uint64_t{1} << (c & 63U);
    auto& w = words_[r * words_per_row_ + (c >> 6)];
    if (value) {
      w |= mask;
    } else {
      w &= ~mask;
    }
  }
  void flip(std::size_t r, std::size_t c) {
    words_[r * words_per_row_ + (c >> 6)] ^= std::uint64_t{1} << (c & 63U);
  }

  std::span<std::uint64_t> row(std::size_t r) {
    return {words_.data() + r * words_per_row_, words_per_row_};
  }
  std::span<const std::uint64_t> row(std::size_t r) const {
    return {words_.data() + r * words_per_row_, words_per_row_};
  }
  std::size_t words_per_row() const noexcept { return words_per_row_; }

  /// this |= other (elementwise OR); shapes must match.
  void or_assign(const BitMatrix& other, pram::Workspace& ws);

  bool operator==(const BitMatrix& other) const;

  /// Number of set bits in the whole matrix (rows reduced in parallel,
  /// each row through the dispatched popcount kernel).
  std::uint64_t popcount(pram::Workspace& ws) const;

  /// True iff any diagonal entry is set (square matrices).
  bool any_diagonal(pram::Workspace& ws) const;
  /// diagonal()[i] = entry (i, i) as 0/1 (square matrices).
  std::vector<std::uint8_t> diagonal(pram::Workspace& ws) const;

  /// Rank over GF(2) (Gaussian elimination; one parallel elimination round
  /// per pivot column).
  std::size_t gf2_rank(pram::Workspace& ws) const;

 private:
  std::uint64_t row_word(std::size_t r, std::size_t w) const {
    return words_[r * words_per_row_ + w];
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Boolean (OR-AND) matrix product: C[i][j] = OR_k (A[i][k] AND B[k][j]).
BitMatrix bool_product(const BitMatrix& a, const BitMatrix& b, pram::Workspace& ws);

/// GF(2) (XOR-AND) matrix product.
BitMatrix gf2_product(const BitMatrix& a, const BitMatrix& b, pram::Workspace& ws);

}  // namespace ncpm::linalg
