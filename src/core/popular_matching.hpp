#pragma once
// Algorithm 1: the NC popular-matching algorithm (Theorem 3).
//
//   1. build the reduced graph G' (reduced_graph.hpp);
//   2. find an applicant-complete matching of G' (Algorithm 2,
//      applicant_complete.hpp) or report that none exists;
//   3. for every f-post p left unmatched, promote one applicant of f^-1(p)
//      from s(a) to p — the promotions are independent because the f^-1 sets
//      are disjoint, so this is a single parallel round.
// By Theorem 1 the result is popular; if step 2 fails, no popular matching
// exists.

#include <optional>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

struct PopularRunStats {
  std::uint64_t while_rounds = 0;  ///< Algorithm 2 while-loop iterations (Lemma 2)
  /// Workspace buffer growths inside the Algorithm 2 round loop: warm-up
  /// (first round) vs steady state (all later rounds; 0 == the zero-
  /// allocation guarantee holds).
  std::uint64_t workspace_allocs_first_round = 0;
  std::uint64_t workspace_allocs_later_rounds = 0;
};

/// The NC pipeline. Requires strict preferences and last resorts. The
/// returned matching pairs applicants with extended post ids and is
/// applicant-complete (last resorts count as matched). All Algorithm 2
/// round-engine scratch is leased from `ws`: passing the same workspace
/// across calls keeps the buffers warm, so repeated solves perform no
/// round-loop allocation at all.
std::optional<matching::Matching> find_popular_matching(const Instance& inst,
                                                        pram::Workspace& ws,
                                                        PopularRunStats* stats = nullptr);

/// Steps 2 and 3 on a G' built by the caller (build_reduced_graph on this
/// instance). The composite modes build G' once, run this, and hand the
/// same G' to their second stage.
std::optional<matching::Matching> find_popular_matching(const Instance& inst,
                                                        const ReducedGraph& rg,
                                                        pram::Workspace& ws,
                                                        PopularRunStats* stats = nullptr);

}  // namespace ncpm::core
