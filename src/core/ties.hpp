#pragma once
// Popular matchings with ties, and the Theorem 11 reduction.
//
// With ties the characterization (Abraham–Irving–Kavitha–Mehlhorn 2007)
// becomes: let E1 be the rank-1 edges, G1 = (A ∪ P, E1), M1 a maximum
// matching of G1, and label vertices Even/Odd/Unreachable by alternating
// reachability from exposed vertices. With f(a) = a's rank-1 posts and
// s(a) = a's most preferred *Even* post, a matching M is popular iff
//   (i)  M ∩ E1 is a maximum matching of G1, and
//   (ii) every applicant is matched to a post in f(a) ∪ {s(a)}.
//
// The solver builds the pruned reduced graph G'' — allowed rank-1 edges
// (Even–Odd, Odd–Even, Unreachable–Unreachable; the others lie in no
// maximum matching of G1) plus the s-edge for Even applicants (Odd and
// Unreachable applicants must be rank-1 matched anyway) — finds an
// applicant-complete matching MA of G'' or reports none, and combines it
// with M1 through the Mendelsohn–Dulmage theorem so the result covers every
// applicant *and* every Odd/Unreachable post, which forces (i).
//
// The Theorem 11 reduction (MCBM ≤_NC Popular Matching) is a test oracle:
// tests/support/rank1_reduction.hpp.

#include <optional>

#include "core/instance.hpp"
#include "matching/matching.hpp"

namespace ncpm::core {

/// Popular matching of an instance with (or without) ties, via the AIKM
/// characterization. Requires last resorts. Sequential: the maximum-matching
/// black box inside is Hopcroft–Karp (whether popular matching with ties is
/// in NC is exactly the open question behind Conjecture 14).
std::optional<matching::Matching> find_popular_matching_ties(const Instance& inst);

/// Polynomial-time popularity check for instances with ties (and strict
/// ones), via the AIKM characterization: M ∩ E1 is a maximum matching of
/// the rank-1 subgraph and every applicant sits on f(a) ∪ {s(a)}. The
/// ties-side analogue of core::satisfies_popular_characterization.
bool satisfies_ties_characterization(const Instance& inst, const matching::Matching& m);

}  // namespace ncpm::core
