#include "support/stable_oracle.hpp"

#include <set>
#include <stdexcept>

#include "stable/gale_shapley.hpp"

namespace ncpm::test {

using stable::MarriageMatching;
using stable::StableInstance;

std::vector<std::pair<std::int32_t, std::int32_t>> blocking_pairs(const StableInstance& inst,
                                                                  const MarriageMatching& m) {
  stable::require_same_size(inst, m);
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  for (std::int32_t man = 0; man < inst.size(); ++man) {
    const std::int32_t wife = m.wife_of[static_cast<std::size_t>(man)];
    for (std::int32_t woman = 0; woman < inst.size(); ++woman) {
      if (woman != wife && inst.man_prefers(man, woman, wife) &&
          inst.woman_prefers(woman, man, m.husband_of[static_cast<std::size_t>(woman)])) {
        pairs.emplace_back(man, woman);
      }
    }
  }
  return pairs;
}

bool is_stable(const StableInstance& inst, const MarriageMatching& m) {
  return blocking_pairs(inst, m).empty();
}

bool is_exposed_rotation(const StableInstance& inst, const MarriageMatching& m,
                         const stable::Rotation& rho) {
  const std::size_t k = rho.pairs.size();
  if (k < 2) return false;
  for (std::size_t i = 0; i < k; ++i) {
    const auto [mi, wi] = rho.pairs[i];
    if (m.wife_of[static_cast<std::size_t>(mi)] != wi) return false;
    if (stable::s_m(inst, m, mi) != rho.pairs[(i + 1) % k].second) return false;
  }
  return true;
}

bool dominates(const StableInstance& inst, const MarriageMatching& m,
               const MarriageMatching& m2) {
  for (std::int32_t man = 0; man < inst.size(); ++man) {
    const std::int32_t w1 = m.wife_of[static_cast<std::size_t>(man)];
    const std::int32_t w2 = m2.wife_of[static_cast<std::size_t>(man)];
    if (inst.man_rank_of(man, w1) > inst.man_rank_of(man, w2)) return false;
  }
  return true;
}

bool strictly_dominates(const StableInstance& inst, const MarriageMatching& m,
                        const MarriageMatching& m2) {
  return !(m == m2) && dominates(inst, m, m2);
}

std::vector<MarriageMatching> all_stable_matchings(const StableInstance& inst, std::size_t cap) {
  std::vector<MarriageMatching> result;
  std::set<std::vector<std::int32_t>> seen;
  std::vector<MarriageMatching> frontier{stable::man_optimal(inst)};
  seen.insert(frontier.front().wife_of);
  while (!frontier.empty()) {
    const MarriageMatching cur = frontier.back();
    frontier.pop_back();
    result.push_back(cur);
    if (result.size() > cap) {
      throw std::runtime_error("all_stable_matchings: cap exceeded");
    }
    for (const auto& rho : stable::exposed_rotations_sequential(inst, cur)) {
      MarriageMatching next = stable::eliminate_rotation(cur, rho);
      if (seen.insert(next.wife_of).second) frontier.push_back(std::move(next));
    }
  }
  return result;
}

bool immediately_dominates(const StableInstance& inst, const MarriageMatching& m,
                           const MarriageMatching& m2,
                           const std::vector<MarriageMatching>& all) {
  if (!strictly_dominates(inst, m, m2)) return false;
  for (const auto& mid : all) {
    if (strictly_dominates(inst, m, mid) && strictly_dominates(inst, mid, m2)) return false;
  }
  return true;
}

}  // namespace ncpm::test
