#pragma once
// Algorithm 2: NC applicant-complete matching in the reduced graph G'.
//
// Every applicant has degree exactly 2 in G' (edges to f(a) and s(a)); posts
// have arbitrary degree. The algorithm repeats, until no post has degree 1:
//   * decompose the alive graph into maximal paths through degree-2 vertices
//     (one half-edge pointer-jumping pass, graph/path_decomposition.hpp);
//   * for every maximal path with a degree-1 post end v0, match the edges at
//     even distance from v0 and delete the matched vertices.
// Lemma 2 bounds the number of iterations by ceil(log2 n) + 1. Afterwards
// all surviving posts have degree >= 2 while applicants still have degree 2;
// either |P| < |A| and no applicant-complete matching exists (Hall), or the
// residual graph is 2-regular — a disjoint union of even cycles — and
// two_regular_perfect_matching finishes the job.
//
// The round engine is zero-allocation and work-proportional: the alive edge
// set lives in a compacted array (rebuilt each round by a parallel prefix
// sum over the survival flags), every per-round buffer is leased once from
// a Workspace, and per-vertex state is only ever reset at the endpoints the
// surviving edges touch. Each while-round therefore costs Θ(m_alive log
// m_alive) work — not Θ(m) — and, once the workspace is warm (after the
// first round, or immediately when the caller reuses a workspace across
// calls), performs no heap allocation.
//
// Vertex space: applicant a -> a; extended post p -> num_applicants + p.
// Edge ids: 2a = (a, f(a)), 2a+1 = (a, s(a)).

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

struct ApplicantCompleteResult {
  bool exists = false;
  /// Per applicant: the matched post in extended ids (f(a) or s(a)).
  std::vector<std::int32_t> post_of;
  /// Iterations of the while-loop — the quantity Lemma 2 bounds by
  /// ceil(log2 n) + 1.
  std::uint64_t while_rounds = 0;
  /// Workspace buffer growths during the first while-round (warm-up) and
  /// during all later rounds. The later-rounds count is the zero-allocation
  /// guarantee of the round engine: it stays 0 once the workspace is warm.
  std::uint64_t workspace_allocs_first_round = 0;
  std::uint64_t workspace_allocs_later_rounds = 0;
};

/// All round-engine scratch is leased from `ws`, which the caller may reuse
/// across calls (and across instances — buffers are re-sized, never assumed
/// clean) to amortise even the first-round warm-up away.
ApplicantCompleteResult applicant_complete_matching(const Instance& inst, const ReducedGraph& rg,
                                                    pram::Workspace& ws);

}  // namespace ncpm::core
