#include "graph/transitive_closure.hpp"

#include <stdexcept>

#include "pram/list_ranking.hpp"

namespace ncpm::graph {

linalg::BitMatrix adjacency_matrix(std::size_t n, std::span<const std::int32_t> tail,
                                   std::span<const std::int32_t> head) {
  if (tail.size() != head.size()) {
    throw std::invalid_argument("adjacency_matrix: tail/head size mismatch");
  }
  linalg::BitMatrix a(n, n);
  for (std::size_t j = 0; j < tail.size(); ++j) {
    const auto u = static_cast<std::size_t>(tail[j]);
    const auto v = static_cast<std::size_t>(head[j]);
    if (u >= n || v >= n) throw std::out_of_range("adjacency_matrix: endpoint out of range");
    a.set(u, v);
  }
  return a;
}

linalg::BitMatrix transitive_closure(const linalg::BitMatrix& adjacency, pram::Workspace& ws) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("transitive_closure: matrix must be square");
  }
  linalg::BitMatrix r = adjacency;
  // After k squarings r covers all paths of length 1..2^k.
  const std::uint32_t rounds = pram::ceil_log2(adjacency.rows() == 0 ? 1 : adjacency.rows());
  for (std::uint32_t k = 0; k < rounds; ++k) {
    linalg::BitMatrix sq = linalg::bool_product(r, r, ws);
    r.or_assign(sq, ws);
    ws.round(r.rows() * r.words_per_row());
  }
  return r;
}

}  // namespace ncpm::graph
