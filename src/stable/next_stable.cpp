#include "stable/next_stable.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "graph/pseudoforest.hpp"

namespace ncpm::stable {

NextStableResult next_stable_matchings(const StableInstance& inst, const MarriageMatching& m,
                                       pram::Workspace& ws) {
  require_same_size(inst, m);
  const auto n = static_cast<std::size_t>(inst.size());
  pram::Executor& ex = ws.exec();
  NextStableResult result;
  if (n == 0) {
    result.is_woman_optimal = true;
    return result;
  }

  // 1. Reduced lists, read lazily: (m', w) is kept iff w weakly prefers m'
  // to her partner. A man's bid is his first kept slot other than p_M(m):
  // s_M(m), or a blocking pair when it lies above p_M(m). Round k reads
  // slots [2^k - 1, 2^{k+1} - 1) of every man still without a bid.
  const auto none = static_cast<std::int32_t>(n);
  auto bid = ws.take<std::int32_t>(n, none);
  auto lists = ws.take<std::uint32_t>(2 * n);
  std::uint32_t* alive_men = lists.data();
  std::uint32_t* survivors = alive_men + n;
  std::iota(alive_men, alive_men + n, 0U);
  const auto kept = [&](std::int32_t man, std::int32_t slot) {
    const std::int32_t w = inst.man_pref(man, slot);
    const std::int32_t partner = m.husband_of[static_cast<std::size_t>(w)];
    return partner != man && inst.woman_rank_of(w, man) <= inst.woman_rank_of(w, partner);
  };
  // Men without a bid, as one run per block of the previous round: run r
  // is alive_men[r * stride ..) and holds off[r + 1] - off[r] men.
  const auto blocks = static_cast<std::size_t>(ex.lanes());
  std::vector<std::size_t> count(blocks, 0), off(blocks + 1, 0);
  count[0] = n;
  std::size_t stride = n;
  std::atomic<bool> unstable{false};
  for (std::size_t lo = 0; lo < n; lo = 2 * lo + 1) {
    for (std::size_t r = 0; r < blocks; ++r) off[r + 1] = off[r] + count[r];
    const std::size_t alive = off[blocks];
    if (alive == 0) break;
    const std::size_t per = (alive + blocks - 1) / blocks;
    const auto hi = static_cast<std::int32_t>(std::min(2 * lo + 1, n));
    // One round over the (alive man, window slot) items, whole men per
    // block; each block compacts the men it leaves without a bid into a run.
    ex.parallel_for(blocks, [&](std::size_t b) {
      std::size_t out = b * per;
      for (std::size_t p = b * per, r = 0; p < std::min(alive, (b + 1) * per); ++p) {
        while (p >= off[r + 1]) ++r;
        const std::uint32_t man = alive_men[r * stride + p - off[r]];
        const auto mi = static_cast<std::int32_t>(man);
        auto slot = static_cast<std::int32_t>(lo);
        while (slot < hi && !kept(mi, slot)) ++slot;
        if (slot == hi) {
          survivors[out++] = man;
        } else if ((bid[man] = slot) < inst.man_rank_of(mi, m.wife_of[man])) {
          unstable.store(true);  // a kept entry above p_M(m): blocking pair
        }
      }
      count[b] = out - b * per;
    });
    ws.round(alive * (static_cast<std::size_t>(hi) - lo));
    std::swap(alive_men, survivors);
    stride = per;
  }
  if (unstable.load()) {
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
  ws.round(n);

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
  const auto analysis = graph::analyze_cycles(hm, ws);
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
    ws.round(rho.pairs.size());
  }

  result.is_woman_optimal = result.rotations.empty();
  return result;
}

NextStableResult next_stable_matchings(const StableInstance& inst, const MarriageMatching& m,
                                       pram::NcCounters* counters, pram::Executor& ex) {
  pram::Workspace ws(ex);
  NextStableResult result = next_stable_matchings(inst, m, ws);
  if (counters != nullptr) {
    counters->rounds += ws.counters().rounds;
    counters->work += ws.counters().work;
  }
  return result;
}

}  // namespace ncpm::stable
