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
// The paper offers three NC methods for cycle detection and we add the
// natural fourth; all are implemented and cross-checked:
//   1. TransitiveClosure — i on cycle iff A⁺(i,i) (Theorem 5 route);
//   2. Gf2Rank          — edge e on cycle iff rank(I_{G-e}) = rank(I_G)
//                          over GF(2) (Lemma 6 + Theorem 7 route);
//   3. EdgeRemovalCC    — edge e on cycle iff cc(G - e) = cc(G)
//                          (Theorem 8 route);
//   4. PointerDoubling  — the image of f^K for K >= n is exactly the set of
//                          on-cycle vertices (sinks made self-loops), found
//                          in O(log n) composition rounds. Default.
//
// Shared post-processing (independent of the detection method): elect the
// minimum-id vertex of every cycle as its root via windowed pointer-jumping
// min, compute each on-cycle vertex's distance to its root by breaking the
// cycle at the root and list-ranking, and label weakly connected components.

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

enum class CycleMethod {
  PointerDoubling,
  TransitiveClosure,
  Gf2Rank,
  EdgeRemovalCC,
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
CycleAnalysis analyze_cycles(const DirectedPseudoforest& pf, CycleMethod method,
                             pram::Workspace& ws);

/// Just the on-cycle mask, by the chosen method (cheaper than full analysis).
std::vector<std::uint8_t> cycle_members(const DirectedPseudoforest& pf, CycleMethod method,
                                        pram::Workspace& ws);

/// Weak-component labels (min vertex id per component) of the pseudoforest.
std::vector<std::int32_t> weak_components(const DirectedPseudoforest& pf, pram::Workspace& ws);

}  // namespace ncpm::graph
