#pragma once
// Rotations in the stable-matching lattice (Definitions 7 and 8).
//
// A rotation exposed in stable M is a cyclic sequence of matched pairs
// ((m0,w0), ..., (mk-1,wk-1)) where w_{i+1} = s_M(m_i) is the highest-
// ranked woman on m_i's list preferring m_i to her partner, and
// m_{i+1} = p_M(w_{i+1}). Eliminating it (m_i marries w_{i+1}) yields the
// immediately-dominated stable matching M \ ρ (Lemma 15).
//
// This module is the *sequential* rotation machinery: the baseline that
// Algorithm 4 (next_stable.hpp) parallelises, and all_rotations, which
// `ncpm_cli rotations` serves. Algorithm 4 shares eliminate_rotation. The
// checks of Definition 7 and the lattice enumeration are test oracles
// (tests/support/stable_oracle.hpp).

#include <optional>
#include <utility>
#include <vector>

#include "stable/instance.hpp"

namespace ncpm::stable {

struct Rotation {
  /// Matched pairs (m_i, w_i) in rotation order.
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;

  /// Rotate so the smallest man id comes first (comparison across finders).
  Rotation canonical() const;
  bool operator==(const Rotation& other) const { return pairs == other.pairs; }
};

/// s_M(m): the highest-ranked woman on m's list who prefers m to her
/// M-partner, or kNone. For a stable M she always ranks below p_M(m).
std::int32_t s_m(const StableInstance& inst, const MarriageMatching& m, std::int32_t man);

/// All rotations exposed in stable M, by walking the successor function
/// next_M(m) = p_M(s_M(m)) sequentially. Empty iff M is woman-optimal.
std::vector<Rotation> exposed_rotations_sequential(const StableInstance& inst,
                                                   const MarriageMatching& m);

/// M \ ρ (Definition 8). ρ must consist of M-pairs.
MarriageMatching eliminate_rotation(const MarriageMatching& m, const Rotation& rho);

/// The complete rotation set of the instance, collected along one maximal
/// chain from the man-optimal to the woman-optimal matching. By the
/// fundamental theorem of the rotation structure (Gusfield-Irving, Thm
/// 2.5.4) every maximal chain eliminates every rotation of the instance
/// exactly once, so the result is chain-independent (property-tested).
/// O(n^2) pairs in total; canonicalised and sorted by first pair.
std::vector<Rotation> all_rotations(const StableInstance& inst);

}  // namespace ncpm::stable
