#pragma once
// Popularity oracles for the test suite. None of them uses Theorem 1 (the
// f-post / s-post characterization) or the AIKM algorithm: each checks
// Definition 1 directly, so they stay independent of the code under test.
//
//  * `popularity_votes` — Definition 1's vote count between two matchings.
//  * `is_popular` — one max-weight assignment. M is popular iff no matching
//    M' wins a vote against it, i.e. iff the unpopularity margin
//    max over M' of sum_a vote_a(M'(a), M(a)) is <= 0, where vote_a is +1,
//    0 or -1 as a prefers M'(a), is indifferent, or prefers M(a)
//    (McCutchen, LATIN 2008). Every applicant has a column of its own — its
//    last resort, or a private "unmatched" column when the instance has
//    none — so the assignment is perfect on the applicant side, and an
//    O(n^3) Hungarian routine finds it.
//  * `is_popular_bruteforce` — Definition 1 by enumerating every matching.
//    Exponential; kept to cross-check `is_popular` on instances with at
//    most six applicants.
//  * `all_popular_matchings_bruteforce` — every popular matching: one
//    enumeration of the candidates, each checked with `is_popular`.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.hpp"
#include "matching/matching.hpp"

namespace ncpm::test {

/// Enumerate every matching of the instance as a post_of vector (extended
/// ids; kNone = unmatched, only possible without last resorts). With last
/// resorts the enumeration is over applicant-complete assignments, matching
/// the paper's convention. Exponential.
void for_each_assignment(const core::Instance& inst,
                         const std::function<void(const std::vector<std::int32_t>&)>& visit);

/// post_of vector -> Matching (validates injectivity).
matching::Matching assignment_to_matching(const core::Instance& inst,
                                          const std::vector<std::int32_t>& post_of);

/// P(m1, m2) - P(m2, m1): positive iff m1 is more popular than m2.
std::int64_t popularity_votes(const core::Instance& inst, const matching::Matching& m1,
                              const matching::Matching& m2);

/// Largest vote margin any matching (applicant-complete when the instance
/// has last resorts) wins against m, by max-weight assignment. m must be a
/// valid assignment (core::is_valid_assignment).
std::int64_t unpopularity_margin(const core::Instance& inst, const matching::Matching& m);

/// Definition 1 in polynomial time: m is valid and its unpopularity margin
/// is at most zero.
bool is_popular(const core::Instance& inst, const matching::Matching& m);

/// Definition 1 by brute force: no enumerated matching beats m.
bool is_popular_bruteforce(const core::Instance& inst, const matching::Matching& m);

/// All popular matchings: every enumerated assignment that `is_popular`
/// accepts, in enumeration order.
std::vector<matching::Matching> all_popular_matchings_bruteforce(const core::Instance& inst);

}  // namespace ncpm::test
