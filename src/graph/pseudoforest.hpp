#pragma once
// Directed pseudoforests and NC cycle finding (Section IV-A of the paper).
//
// A directed pseudoforest has out-degree <= 1 at every vertex; each weakly
// connected component contains either a single sink or a single directed
// cycle. The switching graph G_M of a popular matching (Section IV) and the
// stable-matching switching graph H_M (Section VI) are both directed
// pseudoforests, and everything the paper's Algorithms 3 and 4 need reduces
// to: find each component's unique cycle, order it, and aggregate along the
// tree paths into it.
//
// The paper lists several NC routes to the cycles of a pseudoforest
// (transitive closure, Theorem 5; GF(2) incidence rank, Lemma 6 + Theorem 7;
// edge-removal connected components, Theorem 8). Algorithms 3 and 4 need only
// one to keep their NC bounds, and this library implements one: pointer
// doubling. With sinks made self-loops, the image of f^K for K >= s, s the
// size of the largest weak component, is exactly the set of on-cycle
// vertices (plus the sinks), found in O(log s) doubling rounds.
//
// The analysis labels weakly connected components first (one edge
// (v, f(v)) per vertex, sinks' self-loops ignored), since their largest
// size s bounds every doubling. One windowed pointer-jumping min over a
// window of s then does two jobs: its minima elect the minimum-id vertex
// of every cycle as the cycle's root, and its final jump array is that
// map f^K, K = 2^ceil(log2 s). Each on-cycle vertex's distance to its root
// comes from breaking the cycle at the root and list-ranking.

#include <cstdint>
#include <span>
#include <vector>

#include "pram/list_ranking.hpp"
#include "pram/workspace.hpp"

namespace ncpm::graph {

/// next[v] = unique out-neighbour of v, or pram::kNone (-1) for sinks.
struct DirectedPseudoforest {
  std::vector<std::int32_t> next;

  std::size_t size() const noexcept { return next.size(); }
  bool is_sink(std::size_t v) const { return next[v] == pram::kNone; }
};

struct CycleAnalysis {
  std::vector<std::uint8_t> on_cycle;      ///< 1 iff v lies on its component's cycle
  std::vector<std::int32_t> cycle_root;    ///< min-id vertex of v's cycle (on-cycle v), else kNone
  std::vector<std::int64_t> dist_to_root;  ///< edges from v to cycle_root[v] along `next` (on-cycle v)
  std::vector<std::int64_t> cycle_length;  ///< length of v's cycle (on-cycle v), else 0
  std::vector<std::int32_t> component;     ///< weak-component label (min vertex id), every v
  /// Each cycle listed in `next` order starting at its root, sorted by root id.
  std::vector<std::vector<std::int32_t>> cycles;
};

/// Full cycle analysis of a directed pseudoforest. Throws std::invalid_argument
/// if some vertex has next[v] outside [0, n) ∪ {kNone}.
CycleAnalysis analyze_cycles(const DirectedPseudoforest& pf, pram::Workspace& ws);

}  // namespace ncpm::graph
