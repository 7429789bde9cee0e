#pragma once
// Stable-matching oracles for the test suite: blocking pairs (Definition
// 5), exposed-rotation validation (Definition 7) and the stable-matching
// lattice (Section VI preliminaries). They check Algorithm 4 (Lemma 15:
// M \ ρ is *immediately* dominated by M) from the definitions, sequentially;
// the lattice enumeration is exponential in general.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "stable/instance.hpp"
#include "stable/rotations.hpp"

namespace ncpm::test {

/// Every pair (man, woman) that blocks m, in man-major order.
std::vector<std::pair<std::int32_t, std::int32_t>> blocking_pairs(
    const stable::StableInstance& inst, const stable::MarriageMatching& m);

/// No blocking pair. Throws std::invalid_argument on a size mismatch.
bool is_stable(const stable::StableInstance& inst, const stable::MarriageMatching& m);

/// Definition 7: every (m_i, w_i) is matched in m and w_{i+1} = s_M(m_i).
bool is_exposed_rotation(const stable::StableInstance& inst, const stable::MarriageMatching& m,
                         const stable::Rotation& rho);

/// M dominates M' (M ⪯ M'): every man weakly prefers M to M'.
bool dominates(const stable::StableInstance& inst, const stable::MarriageMatching& m,
               const stable::MarriageMatching& m2);

/// Strict dominance: dominates and different.
bool strictly_dominates(const stable::StableInstance& inst, const stable::MarriageMatching& m,
                        const stable::MarriageMatching& m2);

/// Every stable matching, enumerated by repeated rotation elimination from
/// the man-optimal matching (deduplicated). `cap` bounds the traversal
/// (throws std::runtime_error when exceeded).
std::vector<stable::MarriageMatching> all_stable_matchings(const stable::StableInstance& inst,
                                                           std::size_t cap = 100000);

/// True iff m2 is an *immediate* successor of m in the lattice: m strictly
/// dominates m2 with no stable matching strictly in between. Uses `all`
/// (a precomputed all_stable_matchings result).
bool immediately_dominates(const stable::StableInstance& inst, const stable::MarriageMatching& m,
                           const stable::MarriageMatching& m2,
                           const std::vector<stable::MarriageMatching>& all);

}  // namespace ncpm::test
