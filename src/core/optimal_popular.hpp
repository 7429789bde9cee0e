#pragma once
// The optimal popular matchings: maximum-cardinality (Algorithm 3,
// Theorem 10), rank-maximal and fair (Section IV-E).
//
// All three ride the switching machinery: by Theorem 9 every popular
// matching is an independent per-component choice of switches, and margins
// add across components, so optimising per component optimises globally.
// The paper realises the profile orders with n^(R+1)-sized integer
// weights; we feed the exact profile deltas, one rank bucket at a time in
// the order's priority, to the one SwitchingEngine::Selector:
//   * max-card: one key, the last-resort bucket negated (Definition 4);
//   * rank-maximal: the buckets a switch touches, from rank 1 down;
//   * fair: the same buckets negated, from the last-resort bucket up.
// Each key is one delta round, one weighted list-ranking pass and two
// selector rounds. The buckets
// are rank 1, the last resorts and the distinct s-ranks: k distinct
// s-ranks need k lists of distinct lengths, k(k+1)/2 <= m entries, so
// there are at most 2 + sqrt(2m) keys however long one list is.
//
// Every finder builds G' once, runs Algorithm 1 on it and hands the same
// G' to optimize_popular. They return std::nullopt when no popular
// matching exists and lease their scratch from `ws`: pass the same warm
// workspace across calls (as the engine's workers do) and the pipeline
// runs without allocating scratch.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

enum class Objective {
  kMaxCardinality,  ///< most applicants on real posts
  kRankMaximal,     ///< profile lexicographically maximal from rank 1
  kFair,            ///< profile lexicographically minimal from the last resorts
};

/// The second stage of every optimal mode: the popular matching optimal
/// under `objective`, from a popular matching found in `rg`. Per component
/// it applies the best switch (ties to the smallest key) when that beats
/// switching nothing.
matching::Matching optimize_popular(const Instance& inst, const ReducedGraph& rg,
                                    const matching::Matching& popular, Objective objective,
                                    pram::Workspace& ws);

/// Largest-cardinality popular matching (Algorithm 3, Theorem 10).
std::optional<matching::Matching> find_max_card_popular(const Instance& inst, pram::Workspace& ws);

/// Rank-maximal popular matching: profile lexicographically maximal from
/// rank 1 (most rank-1 applicants, then most rank-2, ...).
std::optional<matching::Matching> find_rank_maximal_popular(const Instance& inst,
                                                            pram::Workspace& ws);

/// Fair popular matching: profile reverse-lexicographically minimal (fewest
/// last resorts, then fewest worst-rank applicants, ...). Always also a
/// maximum-cardinality popular matching.
std::optional<matching::Matching> find_fair_popular(const Instance& inst, pram::Workspace& ws);

/// The profile of an applicant-complete matching (Section IV-E): dimension
/// max_ranks()+1, bucket k = applicants matched at rank k+1, last bucket =
/// last resorts.
std::vector<std::int64_t> matching_profile(const Instance& inst, const matching::Matching& m);

}  // namespace ncpm::core
