#include "linalg/gf2_matrix.hpp"

#include <stdexcept>

#include "linalg/gf2_kernels.hpp"
#include "obs/profiler.hpp"

namespace ncpm::linalg {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), words_per_row_((cols + 63) / 64), words_(rows * words_per_row_, 0) {}

BitMatrix BitMatrix::identity(std::size_t n) {
  BitMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i);
  return m;
}

void BitMatrix::or_assign(const BitMatrix& other, pram::Workspace& ws) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("BitMatrix::or_assign: shape mismatch");
  }
  // Treat the whole backing store as one flat row and OR it in blocks, one
  // kernel call per lane's share.
  const std::size_t n = words_.size();
  if (n == 0) return;
  pram::Executor& ex = ws.exec();
  const auto nlanes = static_cast<std::size_t>(ex.lanes());
  const std::size_t block = (n + nlanes - 1) / nlanes;
  const std::size_t nblocks = (n + block - 1) / block;
  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    gf2k::row_or(words_.data() + lo, other.words_.data() + lo, hi - lo);
  });
}

std::uint64_t BitMatrix::popcount(pram::Workspace& ws) const {
  return ws.exec().parallel_reduce(
      rows_, std::uint64_t{0},
      [&](std::size_t r) {
        return gf2k::popcount_words(words_.data() + r * words_per_row_, words_per_row_);
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

bool BitMatrix::operator==(const BitMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && words_ == other.words_;
}

bool BitMatrix::any_diagonal(pram::Workspace& ws) const {
  const std::size_t n = rows_ < cols_ ? rows_ : cols_;
  return ws.exec().parallel_any(n, [&](std::size_t i) { return get(i, i); });
}

std::vector<std::uint8_t> BitMatrix::diagonal(pram::Workspace& ws) const {
  const std::size_t n = rows_ < cols_ ? rows_ : cols_;
  std::vector<std::uint8_t> d(n);
  ws.exec().parallel_for(n, [&](std::size_t i) { d[i] = get(i, i) ? 1 : 0; });
  return d;
}

std::size_t BitMatrix::gf2_rank(pram::Workspace& ws) const {
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kGf2Rank);
  pram::Executor& ex = ws.exec();
  BitMatrix work = *this;
  const std::size_t wpr = work.words_per_row_;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols_ && pivot_row < rows_; ++col) {
    // Find a row at or below pivot_row with a 1 in this column (strided
    // column probe; AVX2 tier gathers four rows per step).
    const std::uint64_t mask = std::uint64_t{1} << (col & 63U);
    const std::size_t found =
        gf2k::find_pivot(work.words_.data(), wpr, col >> 6, mask, pivot_row, rows_);
    if (found == rows_) continue;
    if (found != pivot_row) {
      auto a = work.row(found);
      auto b = work.row(pivot_row);
      for (std::size_t w = 0; w < wpr; ++w) std::swap(a[w], b[w]);
    }
    // Eliminate the column from every other row in one parallel round.
    const std::size_t pr = pivot_row;
    ex.parallel_for(rows_, [&](std::size_t r) {
      if (r != pr && work.get(r, col)) {
        gf2k::row_xor(work.row(r).data(), work.row(pr).data(), wpr);
      }
    });
    ws.round(rows_ * wpr);
    ++pivot_row;
  }
  return pivot_row;
}

namespace {

template <bool Xor>
BitMatrix product_impl(const BitMatrix& a, const BitMatrix& b, pram::Workspace& ws) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("BitMatrix product: inner dimension mismatch");
  }
  BitMatrix c(a.rows(), b.cols());
  const std::size_t wpr = c.words_per_row();
  ws.exec().parallel_for(a.rows(), [&](std::size_t i) {
    auto out = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (!a.get(i, k)) continue;
      auto src = b.row(k);
      if constexpr (Xor) {
        gf2k::row_xor(out.data(), src.data(), wpr);
      } else {
        gf2k::row_or(out.data(), src.data(), wpr);
      }
    }
  });
  ws.round(a.rows() * a.cols());
  return c;
}

}  // namespace

BitMatrix bool_product(const BitMatrix& a, const BitMatrix& b, pram::Workspace& ws) {
  return product_impl<false>(a, b, ws);
}

BitMatrix gf2_product(const BitMatrix& a, const BitMatrix& b, pram::Workspace& ws) {
  return product_impl<true>(a, b, ws);
}

}  // namespace ncpm::linalg
