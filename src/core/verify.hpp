#pragma once
// Validators for popular matchings: assignment validity, size and the
// Theorem 1 characterization, checked directly against the instance. The
// test suite's Definition 1 oracles (vote counts included), which use none
// of these characterizations, live in tests/support/popular_oracle.hpp.

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "matching/matching.hpp"

namespace ncpm::core {

/// Matched pairs are acceptable (a's list or l(a)) and posts are not shared.
bool is_valid_assignment(const Instance& inst, const matching::Matching& m);

/// Every applicant is matched (to a real post or its last resort).
bool is_applicant_complete(const Instance& inst, const matching::Matching& m);

/// Number of applicants not matched to a last resort (the paper's |M|).
std::size_t matching_size(const Instance& inst, const matching::Matching& m);

/// Theorem 1: m is popular iff every f-post is matched and every applicant
/// sits on f(a) or s(a). Strict instances with last resorts only.
bool satisfies_popular_characterization(const Instance& inst, const ReducedGraph& rg,
                                        const matching::Matching& m);

}  // namespace ncpm::core
