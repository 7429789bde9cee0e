#pragma once
// Stability verification (Definition 5): no blocking pair.

#include <utility>
#include <vector>

#include "pram/workspace.hpp"
#include "stable/instance.hpp"

namespace ncpm::stable {

/// Parallel check over all n^2 pairs: is m a blocking pair with w?
bool is_stable(const StableInstance& inst, const MarriageMatching& m, pram::Workspace& ws);

/// All blocking pairs (sequential; diagnostics and tests).
std::vector<std::pair<std::int32_t, std::int32_t>> blocking_pairs(const StableInstance& inst,
                                                                  const MarriageMatching& m);

}  // namespace ncpm::stable
