#pragma once
// Exponential-time matching oracles for the test suite. Only sane for tiny
// graphs.

#include <cstddef>
#include <functional>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace ncpm::test {

/// Maximum matching cardinality by exhaustive branching.
std::size_t brute_force_max_matching_size(const graph::BipartiteGraph& g);

/// Invoke `visit` on every matching of g (including the empty one), each
/// encoded as right_of_left with kNone for unmatched left vertices.
void for_each_matching(const graph::BipartiteGraph& g,
                       const std::function<void(const std::vector<std::int32_t>&)>& visit);

}  // namespace ncpm::test
