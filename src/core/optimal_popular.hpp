#pragma once
// Profile-optimal popular matchings (Section IV-E): the rank-maximal and
// fair popular matchings.
//
// Both ride the switching machinery: by Theorem 9 every popular matching is
// an independent per-component choice of switches, and profile vectors form
// an ordered abelian group under addition, so optimising per component
// optimises globally. The paper realises the profile orders with
// n^(R+1)-sized integer weights; we keep exact profile vectors (see
// profile.hpp) — identical order, no bignums.
// The profile variants run one O(n) margin pass per rank bucket a switch
// touches: rank 1, the last resorts and the distinct s-ranks. k distinct
// s-ranks need k lists of distinct lengths, k(k+1)/2 <= m entries, so there
// are at most 2 + sqrt(2m) passes however long one list is.
//
// Both finders return std::nullopt when no popular matching exists and
// lease their scratch from `ws`: pass the same warm workspace across calls
// (as the engine's workers do) and the pipeline runs without allocating
// scratch.

#include <optional>

#include "core/instance.hpp"
#include "core/profile.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

/// Rank-maximal popular matching: profile lexicographically maximal from
/// rank 1 (most rank-1 applicants, then most rank-2, ...).
std::optional<matching::Matching> find_rank_maximal_popular(const Instance& inst,
                                                            pram::Workspace& ws);

/// Fair popular matching: profile reverse-lexicographically minimal (fewest
/// last resorts, then fewest worst-rank applicants, ...). Always also a
/// maximum-cardinality popular matching.
std::optional<matching::Matching> find_fair_popular(const Instance& inst, pram::Workspace& ws);

/// The profile of an applicant-complete matching; dimension max_ranks()+1,
/// bucket k = applicants matched at rank k+1, last bucket = last resorts.
Profile matching_profile(const Instance& inst, const matching::Matching& m);

}  // namespace ncpm::core
