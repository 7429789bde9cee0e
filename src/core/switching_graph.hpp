#pragma once
// The switching graph G_M of a popular matching (Section IV, after
// McDermid & Irving) and the parallel switch machinery of Algorithm 3.
//
// G_M has a vertex per (extended) post and, for every applicant a, a
// directed edge from M(a) to O_M(a) — the other post of a's reduced list —
// labelled a. It is a directed pseudoforest (Lemma 4): out-degree <= 1,
// sinks are exactly the posts unmatched in M (all s-posts), and every
// component has either a single sink or a single cycle.
//
// A *switching cycle* is the unique cycle of a cycle component; a
// *switching path* runs from any non-sink s-post vertex q of a tree
// component to its sink. Applying one moves every applicant on it from
// M(a) to O_M(a); Theorem 9 says the popular matchings of the instance are
// exactly the results of applying at most one switch per component.
//
// The engine below computes all of this with the pseudoforest toolkit:
// cycles by pointer doubling, per-vertex margin sums by one weighted
// list-ranking pass toward the component terminal (sink, or cycle broken at
// its root) — which prices *every* switching path of a tree component in a
// single pass — and marks chosen paths with binary-lifting jump pointers.
// Margins are parameterised by an arbitrary int64 post-value function so
// the same engine drives Algorithm 3 (value = 1 for real posts, 0 for last
// resorts; Definition 4) and the weighted variants of Section IV-E.
//
// Per-component orchestration (counting, the profile optimisers, the
// Theorem 9 oracle) reads one menu(): every component's cycle root and
// path starts, grouped by a single O(n) counting sort on component label.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "graph/pseudoforest.hpp"
#include "matching/matching.hpp"
#include "pram/counters.hpp"
#include "pram/executor.hpp"
#include "pram/list_ranking.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

class SwitchingEngine {
 public:
  /// Build G_M for a popular matching m of the (strict) instance. The
  /// construction and every query run their rounds in the workspace they
  /// are handed; the engine keeps no reference to it.
  SwitchingEngine(const Instance& inst, const ReducedGraph& rg, const matching::Matching& m,
                  pram::Workspace& ws);

  /// Benchmark shell, kept only because the frozen perfbench/ sources call
  /// this signature: builds a Workspace on `ex`, runs the constructor above
  /// and adds its counts to `counters` when that is not null. Nothing else
  /// may call it; it goes with the next benchmark change.
  SwitchingEngine(const Instance& inst, const ReducedGraph& rg, const matching::Matching& m,
                  pram::NcCounters* counters, pram::Executor& ex);

  const graph::DirectedPseudoforest& pseudoforest() const noexcept { return pf_; }
  const graph::CycleAnalysis& analysis() const noexcept { return cycles_; }
  /// Applicant labelling p's out-edge (kNone for sinks / posts outside G_M).
  std::span<const std::int32_t> out_applicant() const noexcept { return out_applicant_; }
  std::span<const std::uint8_t> is_s_post_vertex() const noexcept { return is_s_post_; }
  /// Component label (min post id) of every post vertex.
  std::span<const std::int32_t> component() const noexcept { return cycles_.component; }

  struct MarginReport {
    /// Per vertex v: sum of applicant deltas along v -> component terminal
    /// (the switching-path margin when v is a valid path start).
    std::vector<std::int64_t> path_margin;
    /// Per vertex: the full cycle margin if v is a cycle root, else 0.
    std::vector<std::int64_t> cycle_margin;
  };

  /// Margins under a post-value function (indexed by extended post id): an
  /// applicant moving M(a) -> O_M(a) contributes value[O_M(a)] - value[M(a)].
  MarginReport margins(std::span<const std::int64_t> post_value, pram::Workspace& ws) const;

  /// Margins from raw per-vertex deltas: vertex_delta[v] is the gain when
  /// the applicant on v's out-edge switches (must be 0 for sinks). This is
  /// the general entry point — profile-valued optimisation (Section IV-E)
  /// builds applicant-dependent deltas and aggregates here.
  MarginReport margins_from_deltas(std::span<const std::int64_t> vertex_delta,
                                   pram::Workspace& ws) const;

  /// One switch: either the cycle rooted at `key`, or the switching path
  /// from s-post vertex `key` to its component's sink.
  struct Choice {
    std::int32_t key;
    bool is_cycle;
  };

  /// Apply a set of switches (at most one per component — unchecked beyond
  /// matching consistency) and return the resulting matching.
  matching::Matching apply(std::span<const Choice> choices, pram::Workspace& ws) const;

  /// Algorithm 3 selection: per cycle component take the cycle iff its
  /// margin is positive; per tree component take the best-margin switching
  /// path (ties to the smallest start id) iff positive.
  std::vector<Choice> best_choices(const MarginReport& report, pram::Workspace& ws) const;

  /// The switches one component offers (Theorem 9: pick none or one).
  struct MenuEntry {
    std::int32_t cycle_root;      ///< root of the switching cycle; kNone for a tree component
    std::uint32_t starts_begin;   ///< path starts are Menu::starts[starts_begin, starts_end)
    std::uint32_t starts_end;
  };
  /// Every component with an edge of G_M, in the order of its first
  /// edge-bearing vertex; path starts (non-sink s-post vertices of tree
  /// components) ascending within each entry.
  struct Menu {
    std::vector<MenuEntry> entries;
    std::vector<std::int32_t> starts;
    std::span<const std::int32_t> starts_of(const MenuEntry& e) const {
      return std::span<const std::int32_t>(starts).subspan(e.starts_begin,
                                                           e.starts_end - e.starts_begin);
    }
  };
  /// The per-component switch menu in one O(n_ext) counting-sort pass by
  /// component label. Computed on demand: solve and max-card never pay it.
  Menu menu() const;

 private:
  void build(const Instance& inst, const ReducedGraph& rg, const matching::Matching& m,
             pram::Workspace& ws);

  std::vector<std::int32_t> post_of_;  // M as a post vector (per applicant)
  graph::DirectedPseudoforest pf_;
  graph::CycleAnalysis cycles_;
  std::vector<std::int32_t> out_applicant_;
  std::vector<std::uint8_t> is_s_post_;
  std::vector<std::uint8_t> has_cycle_;      // indexed by component label
  std::vector<std::int32_t> broken_succ_;    // sinks and cycle roots self-looped
  pram::ListRanking steps_;                  // unweighted ranking over broken_succ_
  std::vector<std::vector<std::int32_t>> lift_;  // binary-lifting tables over broken_succ_
};

/// Theorem 9 as an oracle: every popular matching obtainable from m by
/// applying at most one switch per component. Exponential in the component
/// count — tests only.
std::vector<matching::Matching> all_popular_matchings_via_switching(const Instance& inst,
                                                                    const ReducedGraph& rg,
                                                                    const matching::Matching& m,
                                                                    pram::Workspace& ws);

/// Number of popular matchings of the instance, in linear time past the
/// seed solve: by Theorem 9 it is the product, over the switching-graph
/// components of any popular matching, of (2 for a cycle component) x
/// (1 + #switching paths for a tree component), read off one O(n) menu()
/// pass. Saturates at UINT64_MAX; std::nullopt when the
/// instance admits no popular matching. (An extension beyond the paper,
/// following McDermid & Irving's structure results.)
std::optional<std::uint64_t> count_popular_matchings(const Instance& inst, pram::Workspace& ws);
/// Count from a known popular matching, skipping the seed solve (callers
/// that already hold one — the engine's check mode — pay one pipeline run,
/// not two).
std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::Workspace& ws);
/// Benchmark shell, kept only because the frozen perfbench/ sources call
/// this signature: builds a Workspace on `ex`, runs the form above and adds
/// its counts to `counters` when that is not null. Nothing else may call
/// it; it goes with the next benchmark change.
std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::NcCounters* counters, pram::Executor& ex);

}  // namespace ncpm::core
