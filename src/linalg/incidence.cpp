#include "linalg/incidence.hpp"

#include <stdexcept>

#include "linalg/gf2_kernels.hpp"

namespace ncpm::linalg {

BitMatrix incidence_matrix(std::size_t n_vertices, std::span<const std::int32_t> eu,
                           std::span<const std::int32_t> ev,
                           std::span<const std::uint8_t> edge_alive) {
  if (eu.size() != ev.size()) throw std::invalid_argument("incidence_matrix: eu/ev size mismatch");
  if (!edge_alive.empty() && edge_alive.size() != eu.size()) {
    throw std::invalid_argument("incidence_matrix: edge_alive size mismatch");
  }
  BitMatrix m(n_vertices, eu.size());
  for (std::size_t j = 0; j < eu.size(); ++j) {
    if (!edge_alive.empty() && edge_alive[j] == 0) continue;
    const auto u = static_cast<std::size_t>(eu[j]);
    const auto v = static_cast<std::size_t>(ev[j]);
    if (u >= n_vertices || v >= n_vertices) {
      throw std::out_of_range("incidence_matrix: endpoint out of range");
    }
    if (u != v) {  // a self-loop contributes 1 + 1 = 0 mod 2
      m.set(u, j);
      m.set(v, j);
    }
  }
  return m;
}

std::size_t component_count_by_rank(std::size_t n_vertices, std::span<const std::int32_t> eu,
                                    std::span<const std::int32_t> ev,
                                    std::span<const std::uint8_t> edge_alive,
                                    pram::Workspace& ws) {
  // Alive-edge popcount over the byte mask (SIMD movemask kernel): a graph
  // with no surviving edges has a zero incidence matrix, so rank 0 and
  // every vertex its own component — skip the elimination entirely. The
  // size checks mirror incidence_matrix so the early exit never masks a
  // malformed call.
  if (eu.size() != ev.size()) throw std::invalid_argument("incidence_matrix: eu/ev size mismatch");
  if (!edge_alive.empty()) {
    if (edge_alive.size() != eu.size()) {
      throw std::invalid_argument("incidence_matrix: edge_alive size mismatch");
    }
    if (gf2k::mask_nonzero_count(edge_alive.data(), edge_alive.size()) == 0) {
      return n_vertices;
    }
  }
  const BitMatrix m = incidence_matrix(n_vertices, eu, ev, edge_alive);
  return n_vertices - m.gf2_rank(ws);
}

}  // namespace ncpm::linalg
