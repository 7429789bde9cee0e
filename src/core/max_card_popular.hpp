#pragma once
// Algorithm 3: NC maximum-cardinality popular matching (Theorem 10).
//
// find_max_card_popular and the switch selection it shares with the
// profile modes live in optimal_popular.hpp; this header keeps the
// benchmark shell.

#include "core/optimal_popular.hpp"

namespace ncpm::core {

/// Benchmark shell, kept only because the frozen perfbench/ sources call
/// this signature: builds G' in `ws` and runs optimize_popular with
/// Objective::kMaxCardinality from `popular`. Nothing else may call it; it
/// goes with the next benchmark change.
matching::Matching maximize_cardinality(const Instance& inst, const matching::Matching& popular,
                                        pram::Workspace& ws);

}  // namespace ncpm::core
