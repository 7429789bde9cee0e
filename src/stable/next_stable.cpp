#include "stable/next_stable.hpp"

#include <stdexcept>

#include "graph/pseudoforest.hpp"
#include "pram/crcw.hpp"

namespace ncpm::stable {

NextStableResult next_stable_matchings(const StableInstance& inst, const MarriageMatching& m,
                                       pram::NcCounters* counters, pram::Executor& ex) {
  const auto n = static_cast<std::size_t>(inst.size());
  NextStableResult result;
  if (n == 0) {
    result.is_woman_optimal = true;
    return result;
  }

  // 1. Soft-delete, in parallel over all n^2 entries of mp: keep (m', w) iff
  // w weakly prefers m' to her partner. H_M reads only the first two
  // entries of each reduced list, and the first must be p_M(m) (always
  // kept). So instead of compressing the lists, every kept entry other than
  // p_M(m) bids its slot in one concurrent-write min round (dropped entries
  // bid n, keeping the round branch-free): the smallest bid is s_M(m), or a
  // blocking pair when it lies above p_M(m). Scratch is O(n), not O(n^2).
  const auto none = static_cast<std::int32_t>(n);
  std::vector<std::int32_t> bid(n, none);
  ex.parallel_for(n * n, [&](std::size_t i) {
    const auto man = static_cast<std::int32_t>(i / n);
    const auto slot = static_cast<std::int32_t>(i % n);
    const std::int32_t w = inst.man_pref(man, slot);
    const std::int32_t partner = m.husband_of[static_cast<std::size_t>(w)];
    const bool kept =
        partner != man && inst.woman_rank_of(w, man) <= inst.woman_rank_of(w, partner);
    pram::crcw_min(bid[static_cast<std::size_t>(man)], kept ? slot : none);
  });
  pram::add_round(counters, n * n);

  // Sanity: for a stable M the first reduced entry of every man is p_M(m)
  // (anything above his partner that kept him would be a blocking pair).
  const bool unstable = ex.parallel_any(n, [&](std::size_t man) {
    const auto mi = static_cast<std::int32_t>(man);
    return bid[man] < inst.man_rank_of(mi, m.wife_of[man]);
  });
  if (unstable) {
    throw std::invalid_argument("next_stable_matchings: matching is not stable");
  }

  // 2. H_M: s_M(m) is the second reduced entry; next(m) = p_M(s_M(m)).
  graph::DirectedPseudoforest hm;
  hm.next.assign(n, pram::kNone);
  ex.parallel_for(n, [&](std::size_t man) {
    if (bid[man] != none) {
      const std::int32_t s = inst.man_pref(static_cast<std::int32_t>(man), bid[man]);
      hm.next[man] = m.husband_of[static_cast<std::size_t>(s)];
    }
  });
  pram::add_round(counters, n);

  // Reproduction note: Lemma 17 of the paper states that every vertex of
  // H_M has out-degree exactly one, i.e. that {m : s_M(m) exists} is closed
  // under next_M. Its proof implicitly restricts the vertex set to D, the
  // men whose partners differ between M and Mz — which the algorithm cannot
  // compute without Mz. On the Mz-free vertex set used here (all men with
  // s_M defined) the closure claim fails: at the woman-optimal matching
  // itself, s_M(m) can exist while next_M(m) has no s_M (verified by the
  // property tests). H_M is therefore a directed *pseudoforest* with sinks,
  // not a functional graph — which changes nothing downstream, because its
  // cycles are still exactly the rotations exposed in M (every cycle
  // satisfies Definition 7 verbatim, and every exposed rotation closes a
  // cycle), and the Section IV-A toolkit handles sinks natively.

  // 3. The cycles of H_M are the exposed rotations.
  const auto analysis =
      graph::analyze_cycles(hm, graph::CycleMethod::PointerDoubling, counters, ex);
  for (const auto& cycle : analysis.cycles) {
    if (cycle.size() < 2) {
      throw std::logic_error("next_stable_matchings: H_M contains a self-loop");
    }
    Rotation rho;
    rho.pairs.reserve(cycle.size());
    for (const auto man : cycle) {
      rho.pairs.emplace_back(man, m.wife_of[static_cast<std::size_t>(man)]);
    }
    result.rotations.push_back(rho.canonical());
  }

  // Eliminations are vertex-disjoint; each is one parallel step.
  result.successors.reserve(result.rotations.size());
  for (const auto& rho : result.rotations) {
    result.successors.push_back(eliminate_rotation(m, rho));
    pram::add_round(counters, rho.pairs.size());
  }

  result.is_woman_optimal = result.rotations.empty();
  return result;
}

}  // namespace ncpm::stable
