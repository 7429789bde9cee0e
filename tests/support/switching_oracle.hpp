#pragma once
// Theorem 9 as an oracle: every popular matching obtainable from a popular
// matching m by applying at most one switch per component of its switching
// graph. Exponential in the component count; cross-checked against the
// Definition 1 enumeration of popular_oracle.hpp on tiny instances.

#include <vector>

#include "core/instance.hpp"
#include "core/reduced_graph.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"

namespace ncpm::test {

std::vector<matching::Matching> all_popular_matchings_via_switching(const core::Instance& inst,
                                                                    const core::ReducedGraph& rg,
                                                                    const matching::Matching& m,
                                                                    pram::Workspace& ws);

}  // namespace ncpm::test
