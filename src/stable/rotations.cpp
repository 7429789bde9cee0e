#include "stable/rotations.hpp"

#include <algorithm>
#include <stdexcept>

#include "stable/gale_shapley.hpp"

namespace ncpm::stable {

Rotation Rotation::canonical() const {
  if (pairs.empty()) return *this;
  std::size_t best = 0;
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first < pairs[best].first) best = i;
  }
  Rotation out;
  out.pairs.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out.pairs.push_back(pairs[(best + i) % pairs.size()]);
  }
  return out;
}

std::int32_t s_m(const StableInstance& inst, const MarriageMatching& m, std::int32_t man) {
  for (const auto w : inst.man_prefs(man)) {
    if (w == m.wife_of[static_cast<std::size_t>(man)]) continue;
    const std::int32_t partner = m.husband_of[static_cast<std::size_t>(w)];
    if (inst.woman_prefers(w, man, partner)) return w;
  }
  return kNone;
}

std::vector<Rotation> exposed_rotations_sequential(const StableInstance& inst,
                                                   const MarriageMatching& m) {
  require_same_size(inst, m);
  const auto n = static_cast<std::size_t>(inst.size());
  std::vector<std::int32_t> next(n, kNone);
  for (std::int32_t man = 0; man < inst.size(); ++man) {
    const std::int32_t s = s_m(inst, m, man);
    if (s != kNone) next[static_cast<std::size_t>(man)] = m.husband_of[static_cast<std::size_t>(s)];
  }

  // Cycles of the functional graph restricted to men with s_M defined.
  std::vector<std::int8_t> state(n, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<Rotation> rotations;
  for (std::int32_t start = 0; start < inst.size(); ++start) {
    if (state[static_cast<std::size_t>(start)] != 0) continue;
    std::vector<std::int32_t> stack;
    std::int32_t cur = start;
    while (cur != kNone && state[static_cast<std::size_t>(cur)] == 0) {
      state[static_cast<std::size_t>(cur)] = 1;
      stack.push_back(cur);
      cur = next[static_cast<std::size_t>(cur)];
    }
    if (cur != kNone && state[static_cast<std::size_t>(cur)] == 1) {
      // Found a new cycle: unwind from cur.
      Rotation rho;
      const auto begin = std::find(stack.begin(), stack.end(), cur);
      for (auto it = begin; it != stack.end(); ++it) {
        rho.pairs.emplace_back(*it, m.wife_of[static_cast<std::size_t>(*it)]);
      }
      rotations.push_back(rho.canonical());
    }
    for (const auto v : stack) state[static_cast<std::size_t>(v)] = 2;
  }
  return rotations;
}

MarriageMatching eliminate_rotation(const MarriageMatching& m, const Rotation& rho) {
  if (rho.pairs.size() < 2) throw std::invalid_argument("eliminate_rotation: needs k >= 2");
  MarriageMatching out = m;
  const std::size_t k = rho.pairs.size();
  for (std::size_t i = 0; i < k; ++i) {
    const auto [mi, wi] = rho.pairs[i];
    if (m.wife_of[static_cast<std::size_t>(mi)] != wi) {
      throw std::invalid_argument("eliminate_rotation: pair not matched in M");
    }
    const std::int32_t w_next = rho.pairs[(i + 1) % k].second;
    out.wife_of[static_cast<std::size_t>(mi)] = w_next;
    out.husband_of[static_cast<std::size_t>(w_next)] = mi;
  }
  return out;
}

std::vector<Rotation> all_rotations(const StableInstance& inst) {
  std::vector<Rotation> rotations;
  MarriageMatching m = man_optimal(inst);
  while (true) {
    const auto exposed = exposed_rotations_sequential(inst, m);
    if (exposed.empty()) break;
    // Eliminate one exposed rotation per step; each rotation of the
    // instance becomes exposed on every chain exactly once.
    rotations.push_back(exposed.front());
    m = eliminate_rotation(m, exposed.front());
  }
  std::sort(rotations.begin(), rotations.end(), [](const Rotation& a, const Rotation& b) {
    return a.pairs < b.pairs;
  });
  return rotations;
}

}  // namespace ncpm::stable
