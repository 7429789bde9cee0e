#pragma once
// Algorithm 4: the NC "next" stable matching algorithm (Theorem 16).
//
// Given a stable matching M:
//   1. build the *reduced lists*: delete every pair (m', w) where w prefers
//      her partner p_M(w) to m', in one parallel marking round. In the
//      reduced lists p_M(m) is the first entry of m's list and s_M(m) the
//      second (if any). The paper compresses each list with parallel prefix
//      sums; only s_M(m) is read, so the same round instead takes it as the
//      min over the kept slots other than p_M(m) (one CRCW min write per
//      entry, O(n) scratch instead of O(n^2));
//   2. build the switching graph H_M — a vertex for each man with s_M(m)
//      defined, and the edge m -> next_M(m) = p_M(s_M(m)). The paper's
//      Lemma 17 calls H_M a functional graph; on the Mz-free vertex set the
//      implementation uses, it is in general a directed pseudoforest with
//      sinks (see the reproduction note in next_stable.cpp) — its simple
//      cycles are still exactly the rotations exposed in M;
//   3. find all cycles with the NC pseudoforest toolkit (Section IV-A) and
//      eliminate each rotation in one parallel step, yielding every
//      immediately-dominated stable matching M \ ρ (Lemma 15).
// If H_M is empty, M is the woman-optimal matching.

#include <vector>

#include "pram/counters.hpp"
#include "pram/executor.hpp"
#include "stable/instance.hpp"
#include "stable/rotations.hpp"

namespace ncpm::stable {

struct NextStableResult {
  /// True iff no rotation is exposed: M = Mz.
  bool is_woman_optimal = false;
  /// The rotations exposed in M (cycles of H_M), canonicalised.
  std::vector<Rotation> rotations;
  /// M \ ρ for each rotation, same order.
  std::vector<MarriageMatching> successors;
};

/// M must be stable (throws std::invalid_argument otherwise — detected when
/// some reduced list does not start with p_M(m)). Rounds run on `ex`.
NextStableResult next_stable_matchings(const StableInstance& inst, const MarriageMatching& m,
                                       pram::NcCounters* counters = nullptr,
                                       pram::Executor& ex = pram::default_executor());

}  // namespace ncpm::stable
