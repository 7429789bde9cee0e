#pragma once
// Graph incidence matrices over GF(2) (Lemma 6 of the paper).
//
// For an undirected multigraph G with n vertices, m edges and k connected
// components, the unoriented incidence matrix I_G over GF(2) has
// rank(I_G) = n - k. Section IV-A uses this to detect the unique cycle of a
// pseudoforest: edge e lies on a cycle iff removing its column leaves the
// rank unchanged (equivalently, cc(G - e) = cc(G)).
//
// Self-loops produce an all-zero column mod 2 (1 + 1 = 0), which is exactly
// right: a self-loop is a cycle, and deleting a zero column never changes the
// rank, so the rank test classifies it as a cycle edge.

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/gf2_matrix.hpp"

namespace ncpm::linalg {

/// Unoriented incidence matrix over GF(2): rows = vertices, columns = edges.
/// Edge j joins eu[j] and ev[j]; `edge_alive` (optional) masks columns out.
BitMatrix incidence_matrix(std::size_t n_vertices, std::span<const std::int32_t> eu,
                           std::span<const std::int32_t> ev,
                           std::span<const std::uint8_t> edge_alive = {});

/// Number of connected components of the multigraph, computed as
/// n - rank(I_G) per Lemma 6. Isolated vertices count as components.
std::size_t component_count_by_rank(std::size_t n_vertices, std::span<const std::int32_t> eu,
                                    std::span<const std::int32_t> ev,
                                    std::span<const std::uint8_t> edge_alive,
                                    pram::Workspace& ws);

}  // namespace ncpm::linalg
