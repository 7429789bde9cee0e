#pragma once
// Algorithm 3: NC maximum-cardinality popular matching (Theorem 10).
//
// Pipeline: find any popular matching (Algorithm 1), build its switching
// graph, compute the Definition 4 margins (post value 1 for real posts, 0
// for last resorts), and apply, per component, the switching cycle /
// best-margin switching path whenever the margin is positive. By Theorem 9
// every popular matching arises from an independent per-component choice,
// and margins add across components, so the greedy per-component optimum is
// the global one.

#include <optional>

#include "core/instance.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {

/// Largest-cardinality popular matching, or std::nullopt when the instance
/// admits no popular matching. Strict preferences with last resorts.
/// Algorithm 1's round scratch and this pipeline's own buffers are leased
/// from `ws`, so a caller holding one warm workspace (e.g. an engine
/// worker) solves repeatedly without workspace growth.
std::optional<matching::Matching> find_max_card_popular(const Instance& inst, pram::Workspace& ws);

/// Algorithm 3 proper: maximise cardinality starting from a known popular
/// matching of the instance.
matching::Matching maximize_cardinality(const Instance& inst, const matching::Matching& popular,
                                        pram::Workspace& ws);

}  // namespace ncpm::core
