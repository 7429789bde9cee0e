#pragma once
// Theorem 11 (MCBM ≤_NC Popular Matching): give every edge of an arbitrary
// bipartite graph rank 1 and add no last resorts; then popular matchings
// and maximum-cardinality matchings coincide (Lemmas 12 and 13). The
// reduction itself is the NC part; the instance family it produces is
// solved here per Lemma 13. It is the paper's hardness evidence, not a
// served mode, so it lives with the test oracles.

#include "core/instance.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace ncpm::test {

/// Theorem 11 instance: every edge of g at rank 1, no last resorts.
core::Instance rank1_instance(const graph::BipartiteGraph& g);

/// Popular matching of a rank-1 no-last-resort instance (Lemma 13: any
/// maximum matching of the acceptability graph is popular, and Lemma 12:
/// any popular matching is maximum).
matching::Matching popular_matching_rank1(const core::Instance& inst);

/// The full Theorem 11 pipeline: reduce g to a popular-matching instance,
/// solve it, return the matching (which has maximum cardinality in g).
matching::Matching max_card_bipartite_via_popular(const graph::BipartiteGraph& g);

}  // namespace ncpm::test
