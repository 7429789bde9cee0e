#pragma once
// Transitive closure by repeated boolean matrix squaring (Theorem 5 stand-in).
//
// The paper's first pseudoforest cycle finder computes the transitive closure
// G*_P and declares i on the unique cycle when i and some j reach each other.
// For a digraph given as an edge list we compute the *strict* closure A⁺
// (paths of length >= 1) with ceil(log2 n) rounds of R := R | R·R, so vertex
// v lies on a directed cycle iff A⁺[v][v]. Work is O(n³/64) per squaring —
// polynomial, as the NC definition requires; the depth claim (O(log² n)) is
// what the round counter validates.

#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/gf2_matrix.hpp"
#include "pram/workspace.hpp"

namespace ncpm::graph {

/// Adjacency matrix of the digraph with edges tail[j] -> head[j].
linalg::BitMatrix adjacency_matrix(std::size_t n, std::span<const std::int32_t> tail,
                                   std::span<const std::int32_t> head);

/// Strict transitive closure A⁺: entry (i, j) set iff a directed path of
/// length >= 1 leads from i to j.
linalg::BitMatrix transitive_closure(const linalg::BitMatrix& adjacency, pram::Workspace& ws);

}  // namespace ncpm::graph
