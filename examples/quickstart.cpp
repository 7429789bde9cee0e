// Quickstart: build an instance, find a popular matching, maximise its
// cardinality, inspect the result. Uses the paper's running example
// (Figure 1) so the output can be compared with Section III-C.

#include <cstdio>

#include "core/instance.hpp"
#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/verify.hpp"

int main() {
  using namespace ncpm;
  pram::Workspace ws;  // the round context every solver call threads

  // Applicants rank posts, best first (0-indexed; the paper's a1..a8 over
  // p1..p9). Ties would use Instance::with_ties.
  const core::Instance instance = core::Instance::strict(9, {
                                                                {0, 3, 4, 1, 5},
                                                                {3, 4, 6, 1, 7},
                                                                {3, 0, 2, 7},
                                                                {0, 6, 3, 2, 8},
                                                                {4, 0, 6, 1, 5},
                                                                {6, 5},
                                                                {6, 3, 7, 1},
                                                                {6, 3, 0, 4, 8, 2},
                                                            });

  // Algorithm 1: a popular matching, or proof that none exists.
  const auto popular = core::find_popular_matching(instance, ws);
  if (!popular.has_value()) {
    std::printf("no popular matching exists\n");
    return 0;
  }
  std::printf("popular matching (%zu applicants on real posts):\n",
              core::matching_size(instance, *popular));
  for (std::int32_t a = 0; a < instance.num_applicants(); ++a) {
    const std::int32_t p = popular->right_of(a);
    if (instance.is_last_resort(p)) {
      std::printf("  a%d -> (last resort)\n", a + 1);
    } else {
      std::printf("  a%d -> p%d (rank %d)\n", a + 1, p + 1, instance.rank_of(a, p));
    }
  }

  // Algorithm 3: the largest popular matching.
  const auto largest = core::find_max_card_popular(instance, ws);
  std::printf("maximum-cardinality popular matching size: %zu\n",
              core::matching_size(instance, *largest));

  // Independent certification via the Theorem 1 characterization.
  const auto rg = core::build_reduced_graph(instance, ws);
  std::printf("certified popular: %s\n",
              core::satisfies_popular_characterization(instance, rg, *largest) ? "yes" : "no");
  return 0;
}
