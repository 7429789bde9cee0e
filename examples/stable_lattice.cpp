// Stable-matching lattice walk: from the man-optimal matching, repeatedly
// apply Algorithm 4 (next stable matchings) down to the woman-optimal
// matching, printing the rotations exposed at each visited matching. Uses
// the paper's Figure 5 instance.

#include <cstdio>

#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

namespace {

ncpm::stable::StableInstance fig5() {
  return ncpm::stable::StableInstance::from_lists(
      {
          {4, 6, 0, 1, 5, 7, 3, 2},
          {1, 2, 6, 4, 3, 0, 7, 5},
          {7, 4, 0, 3, 5, 1, 2, 6},
          {2, 1, 6, 3, 0, 5, 7, 4},
          {6, 1, 4, 0, 2, 5, 7, 3},
          {0, 5, 6, 4, 7, 3, 1, 2},
          {1, 4, 6, 5, 2, 3, 7, 0},
          {2, 7, 3, 4, 6, 1, 5, 0},
      },
      {
          {4, 2, 6, 5, 0, 1, 7, 3},
          {7, 5, 2, 4, 6, 1, 0, 3},
          {0, 4, 5, 1, 3, 7, 6, 2},
          {7, 6, 2, 1, 3, 0, 4, 5},
          {5, 3, 6, 2, 7, 0, 1, 4},
          {1, 7, 4, 2, 3, 5, 6, 0},
          {6, 4, 1, 0, 7, 5, 3, 2},
          {6, 3, 0, 4, 1, 2, 5, 7},
      });
}

void print_matching(const char* label, const ncpm::stable::MarriageMatching& m) {
  std::printf("%s:", label);
  for (std::size_t man = 0; man < m.wife_of.size(); ++man) {
    std::printf(" m%zu-w%d", man + 1, m.wife_of[man] + 1);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  ncpm::pram::Workspace ws;  // the round context every solver call threads
  const auto inst = fig5();
  auto m = ncpm::stable::man_optimal(inst);
  print_matching("man-optimal M0", m);
  int level = 0;
  while (true) {
    const auto next = ncpm::stable::next_stable_matchings(inst, m, ws);
    if (next.is_woman_optimal) {
      std::printf("\nreached the woman-optimal matching after %d steps\n", level);
      break;
    }
    std::printf("  level %d exposes %zu rotation(s):\n", level, next.rotations.size());
    for (const auto& rho : next.rotations) {
      std::printf("    rho = ");
      for (const auto& [man, woman] : rho.pairs) std::printf("(m%d,w%d) ", man + 1, woman + 1);
      std::printf("\n");
    }
    m = next.successors.front();  // follow the first rotation downward
    ++level;
    print_matching("descended to", m);
  }
  print_matching("woman-optimal Mz", ncpm::stable::woman_optimal(inst));
  return 0;
}
