#pragma once
// The reduced graph G' of Section III (strict preferences).
//
// For each applicant a, f(a) is the top post of a's list and s(a) the most
// preferred *non-f-post* on the list (falling back to the last resort l(a),
// which always exists and is never an f-post). G' keeps exactly the edges
// (a, f(a)) and (a, s(a)) — Theorem 1 says a matching is popular iff it is
// applicant-complete in G' and matches every f-post.
//
// Construction is the parallel procedure from the paper, phrased per
// element: mark the posts with a rank-1 incident edge (the f-posts), then
// per applicant take the top entry and the first non-f entry of the list.

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "pram/counters.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

struct ReducedGraph {
  std::vector<std::int32_t> f_post;      ///< per applicant: f(a) (always a real post)
  std::vector<std::int32_t> s_post;      ///< per applicant: s(a) (may be the last resort)
  std::vector<std::int32_t> s_rank;      ///< rank of s(a) on a's list (num_ranks+1 for l(a))
  std::vector<std::uint8_t> is_f_post;   ///< over extended post ids
  std::vector<std::int32_t> f_posts;     ///< the distinct f-posts, ascending
  /// f^-1 as CSR over extended post ids: applicants whose f(a) = p.
  std::vector<std::size_t> f_inv_offset;
  std::vector<std::int32_t> f_inv;

  std::size_t num_f_posts() const noexcept { return f_posts.size(); }
  /// Applicants with f(a) == p (empty span for non-f-posts).
  std::span<const std::int32_t> f_inverse(std::int32_t p) const {
    const auto i = static_cast<std::size_t>(p);
    return {f_inv.data() + f_inv_offset[i], f_inv_offset[i + 1] - f_inv_offset[i]};
  }
};

/// Build G' from a strict-preferences instance with last resorts.
/// Throws std::invalid_argument for ties or missing last resorts.
ReducedGraph build_reduced_graph(const Instance& inst, pram::Workspace& ws);

/// Benchmark shell, kept only because the frozen perfbench/ sources call
/// this signature: builds a Workspace on `ex`, runs the form above and adds
/// its counts to `counters` when that is not null. Nothing else may call
/// it; it goes with the next benchmark change.
ReducedGraph build_reduced_graph(const Instance& inst, pram::NcCounters* counters,
                                 pram::Executor& ex);

}  // namespace ncpm::core
