#pragma once
// The lexicographic profile orders of Section IV-E, as the optimality spec
// the rank-maximal and fair tests check against.
//
// A profile (core::matching_profile) is the tuple (x_1, ..., x_{R+1})
// where x_k counts the applicants matched to their rank-k post and R+1 is
// the last-resort bucket. The paper encodes the two orders as n^(R+1)-sized
// integer weights; these compare the exact vectors instead:
//   * rank-maximal order >_R: lexicographically from rank 1 downwards,
//     larger is better;
//   * fair order <_F: lexicographically from the last-resort bucket
//     upwards, smaller is better (a fair matching minimises high-rank use).
//
// Both are translation-invariant total orders on Z^(R+1), which is what
// lets Algorithm 3's per-component greedy stay optimal for profile-valued
// margins: under such an order the maximum of a sum of independent choices
// is the sum of the per-choice maxima.

#include <cstdint>
#include <vector>

namespace ncpm::test {

/// True iff a precedes b in the rank-maximal order (a is worse than b).
/// Throws std::invalid_argument when the dimensions differ.
bool rank_maximal_less(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b);

/// True iff a precedes b in the fair order (a is better than b). Throws
/// std::invalid_argument when the dimensions differ.
bool fair_less(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b);

}  // namespace ncpm::test
