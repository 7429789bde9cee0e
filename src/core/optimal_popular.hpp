#pragma once
// Optimal popular matchings (Section IV-E): maximum/minimum-weight popular
// matchings and the two profile-based specialisations, rank-maximal and
// fair popular matchings.
//
// All of them ride the switching machinery: by Theorem 9 every popular
// matching is an independent per-component choice of switches, and both
// int64 weights and profile vectors form ordered abelian groups under
// addition, so optimising per component optimises globally. The paper
// realises the profile orders with n^(R+1)-sized integer weights; we keep
// exact profile vectors (see profile.hpp) — identical order, no bignums.
// The profile variants run one O(n) margin pass per rank bucket a switch
// touches: rank 1, the last resorts and the distinct s-ranks. k distinct
// s-ranks need k lists of distinct lengths, k(k+1)/2 <= m entries, so there
// are at most 2 + sqrt(2m) passes however long one list is.

#include <functional>
#include <optional>

#include "core/instance.hpp"
#include "core/profile.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

/// weight(applicant, extended post) -> value; evaluated only at the reduced
/// pairs (a, f(a)) and (a, s(a)).
using WeightFn = std::function<std::int64_t(std::int32_t, std::int32_t)>;

/// Optimal (max- or min-weight) popular matching, or std::nullopt when no
/// popular matching exists. Every entry point leases its scratch from `ws`:
/// pass the same warm workspace across calls (as the engine's workers do)
/// and the whole pipeline runs without allocating scratch.
std::optional<matching::Matching> find_optimal_popular(const Instance& inst,
                                                       const WeightFn& weight, bool maximize,
                                                       pram::Workspace& ws);

/// Weight-optimise starting from a known popular matching.
matching::Matching optimize_weight(const Instance& inst, const matching::Matching& popular,
                                   const WeightFn& weight, bool maximize, pram::Workspace& ws);

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
