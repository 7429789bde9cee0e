#pragma once
// NC perfect matching in 2-regular graphs (Algorithm 2, line 17).
//
// After Algorithm 2's while-loop the residual reduced graph is a disjoint
// union of even cycles; "choosing all edges of even distance yields a perfect
// matching". This module implements exactly that in O(log n) pointer-jumping
// rounds over half-edges:
//   * every half-edge lies on a directed traversal cycle;
//   * elect the minimum half-edge id of each directed cycle as its label;
//   * of the two opposite traversals of an undirected cycle, only the one
//     holding the globally smaller label proceeds (so each edge is decided
//     exactly once);
//   * break the cycle at the label, list-rank, and select edges at even
//     distance from the root edge.
//
// Works on any disjoint-union-of-cycles graph; returns std::nullopt when a
// cycle has odd length (impossible for the bipartite callers).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pram/workspace.hpp"

namespace ncpm::matching {

/// Edge ids of a perfect matching of the graph with edges (eu[i], ev[i]),
/// where every vertex incident to an edge has degree exactly 2. Throws
/// std::invalid_argument if some such vertex has a different degree; returns
/// std::nullopt if some cycle is odd. All scratch is
/// leased from `ws`, so a warm workspace makes the whole pass
/// allocation-free (except for the returned edge list).
std::optional<std::vector<std::int32_t>> two_regular_perfect_matching(
    std::size_t n_vertices, std::span<const std::int32_t> eu, std::span<const std::int32_t> ev,
    pram::Workspace& ws);

}  // namespace ncpm::matching
