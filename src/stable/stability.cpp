#include "stable/stability.hpp"


namespace ncpm::stable {

namespace {

bool is_blocking(const StableInstance& inst, const MarriageMatching& m, std::int32_t man,
                 std::int32_t woman) {
  if (m.wife_of[static_cast<std::size_t>(man)] == woman) return false;
  return inst.man_prefers(man, woman, m.wife_of[static_cast<std::size_t>(man)]) &&
         inst.woman_prefers(woman, man, m.husband_of[static_cast<std::size_t>(woman)]);
}

}  // namespace

bool is_stable(const StableInstance& inst, const MarriageMatching& m, pram::Workspace& ws) {
  const auto n = static_cast<std::size_t>(inst.size());
  const bool blocked = ws.exec().parallel_any(n * n, [&](std::size_t i) {
    const auto man = static_cast<std::int32_t>(i / n);
    const auto woman = static_cast<std::int32_t>(i % n);
    return is_blocking(inst, m, man, woman);
  });
  ws.round(n * n);
  return !blocked;
}

std::vector<std::pair<std::int32_t, std::int32_t>> blocking_pairs(const StableInstance& inst,
                                                                  const MarriageMatching& m) {
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  for (std::int32_t man = 0; man < inst.size(); ++man) {
    for (std::int32_t woman = 0; woman < inst.size(); ++woman) {
      if (is_blocking(inst, m, man, woman)) pairs.emplace_back(man, woman);
    }
  }
  return pairs;
}

}  // namespace ncpm::stable
