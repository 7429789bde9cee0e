#pragma once
// NC perfect matching in 2^k-regular bipartite graphs via Euler splitting
// (Lev–Pippenger–Valiant, the paper's reference [22]).
//
// Algorithm 2 itself only ever needs the 2-regular case (two_regular.hpp);
// this module ships the general construction the paper cites: repeatedly
// split a d-regular bipartite graph into two d/2-regular halves by pairing
// the incident edges at every vertex (which decomposes the edge set into
// closed trails), 2-colouring each trail by parity, and recursing on one
// colour class. After log2(d) splits the remaining 1-regular graph is a
// perfect matching. Each split costs O(log n) pointer-jumping rounds.

#include <optional>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::matching {

/// Perfect matching of a d-regular bipartite graph with d a power of two and
/// |left| == |right|. Throws std::invalid_argument if g is not d-regular for
/// a power-of-two d or the sides differ in size. The log2(d) splits lease
/// one warm set of scratch buffers from `ws`.
Matching regular_bipartite_perfect_matching(const graph::BipartiteGraph& g, pram::Workspace& ws);

}  // namespace ncpm::matching
