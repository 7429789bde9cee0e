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
// One Selector prices and picks the switches from a sequence of per-vertex
// int64 deltas in priority order: Algorithm 3 feeds one key (a switch's gain
// in real posts, Definition 4), and the profile optimisers of Section IV-E
// one per rank bucket (optimal_popular.hpp).
//
// Per-component orchestration (counting, the tests' Theorem 9 enumeration)
// reads one menu(): every component's cycle root and path starts, grouped
// by a single O(n) counting sort on component label.

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

  /// One switch: either the cycle rooted at `key`, or the switching path
  /// from s-post vertex `key` to its component's sink.
  struct Choice {
    std::int32_t key;
    bool is_cycle;
  };

  /// Apply a set of switches (at most one per component — unchecked beyond
  /// matching consistency) and return the resulting matching.
  matching::Matching apply(std::span<const Choice> choices, pram::Workspace& ws) const;

  /// Lexicographic switch selection. A component's candidates are its
  /// switches (its cycle, or its path starts). Each refine() takes one key
  /// as per-vertex deltas — vertex_delta[v] in {-1, 0, 1} is the gain when
  /// the applicant on v's out-edge switches (0 for sinks) — prices every
  /// candidate with one weighted list-ranking pass toward the component
  /// terminal (a path start's margin is its path sum, a cycle root's the
  /// whole cycle's) and keeps the candidates on the component maximum, in
  /// two CRCW rounds; keys arrive in priority order. choices() takes each
  /// component's smallest surviving key iff its margins are
  /// lexicographically positive.
  class Selector {
   public:
    Selector(const SwitchingEngine& engine, pram::Workspace& ws);
    void refine(std::span<const std::int64_t> vertex_delta, pram::Workspace& ws);
    std::vector<Choice> choices(pram::Workspace& ws) const;

   private:
    /// Per vertex: not a candidate (or dropped), or a candidate on every
    /// key so far whose margins were all zero, or whose first nonzero
    /// margin was positive, or negative.
    enum : std::uint8_t { kOut, kTied, kAhead, kBehind };
    const SwitchingEngine& engine_;
    std::int64_t key_ = 0;                 // keys refined so far
    pram::WsBuffer<std::uint8_t> state_;
    pram::WsBuffer<std::int64_t> best_;    // per component label: (key, maximum margin)
    pram::WsBuffer<std::int32_t> head_;    // ranking scratch, leased once for every key
    pram::WsBuffer<std::int64_t> rank_;
    pram::WsBuffer<std::uint8_t> reaches_;
  };

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
  bool is_cycle_root(std::size_t v) const {
    return cycles_.on_cycle[v] != 0 && cycles_.cycle_root[v] == static_cast<std::int32_t>(v);
  }
  /// A switching-path start: a matched s-post vertex of a tree component.
  bool is_path_start(std::size_t v) const {
    return is_s_post_[v] != 0 && out_applicant_[v] != kNone &&
           has_cycle_[static_cast<std::size_t>(cycles_.component[v])] == 0;
  }

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

/// Number of popular matchings of the instance, in linear time past the
/// seed solve: by Theorem 9 it is the product, over the switching-graph
/// components of any popular matching, of (2 for a cycle component) x
/// (1 + #switching paths for a tree component), read off one O(n) menu()
/// pass. Saturates at UINT64_MAX; std::nullopt when the
/// instance admits no popular matching. (An extension beyond the paper,
/// following McDermid & Irving's structure results.)
std::optional<std::uint64_t> count_popular_matchings(const Instance& inst, pram::Workspace& ws);
/// Count from a known popular matching and the G' it lies in, skipping the
/// seed solve and the reduction (callers that already hold both — the
/// engine's check mode — build G' once and run one pipeline, not two).
std::uint64_t count_popular_matchings(const Instance& inst, const ReducedGraph& rg,
                                      const matching::Matching& popular, pram::Workspace& ws);
/// Benchmark shell, kept only because the frozen perfbench/ sources call
/// this signature: builds a Workspace on `ex` and G' in it, runs the form
/// above and adds its counts to `counters` when that is not null. Nothing
/// else may call it; it goes with the next benchmark change.
std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::NcCounters* counters, pram::Executor& ex);

}  // namespace ncpm::core
