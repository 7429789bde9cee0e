// Regenerates the content of every figure in the paper (F1-F7 in
// DESIGN.md) from the library's own computations, in the paper's notation.
// Diff the output against the figures in the text.

#include <cstdio>

#include "core/applicant_complete.hpp"
#include "core/instance.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"
#include "stable/rotations.hpp"

namespace {

ncpm::core::Instance fig1() {
  return ncpm::core::Instance::strict(9, {
                                             {0, 3, 4, 1, 5},
                                             {3, 4, 6, 1, 7},
                                             {3, 0, 2, 7},
                                             {0, 6, 3, 2, 8},
                                             {4, 0, 6, 1, 5},
                                             {6, 5},
                                             {6, 3, 7, 1},
                                             {6, 3, 0, 4, 8, 2},
                                         });
}

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

}  // namespace

int main() {
  using namespace ncpm;
  pram::Workspace ws;  // the round context every solver call threads

  const auto inst = fig1();
  std::printf("=== Figure 1: a popular matching instance I ===\n");
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    std::printf("a%d :", a + 1);
    for (const auto p : inst.posts_of(a)) std::printf(" p%d", p + 1);
    std::printf("\n");
  }

  const auto rg = core::build_reduced_graph(inst, ws);
  std::printf("\n=== Figure 2a: the reduced preference lists of I ===\n");
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    std::printf("a%d : p%d p%d\n", a + 1, rg.f_post[ai] + 1, rg.s_post[ai] + 1);
  }
  std::printf("f-posts:");
  for (const auto p : rg.f_posts) std::printf(" p%d", p + 1);
  std::printf("\n");

  std::printf("\n=== Figure 3: Algorithm 2's while loop ===\n");
  const auto ac = core::applicant_complete_matching(inst, rg, ws);
  std::printf("while-loop rounds: %llu\n", static_cast<unsigned long long>(ac.while_rounds));
  std::printf("matched in/after the loop:");
  for (std::size_t a = 0; a < 8; ++a) std::printf(" (a%zu,p%d)", a + 1, ac.post_of[a] + 1);
  std::printf("\n");

  const auto popular = core::find_popular_matching(inst, ws);
  std::printf("\n=== Section III-C: the resulting popular matching M ===\nM =");
  for (std::int32_t a = 0; a < 8; ++a) std::printf(" (a%d,p%d)", a + 1, popular->right_of(a) + 1);
  std::printf("\n");

  std::printf("\n=== Figure 4: the switching graph G_M (paper's stated M) ===\n");
  matching::Matching paper_m(inst.num_applicants(), inst.total_posts());
  const std::int32_t stated[] = {0, 1, 3, 2, 4, 6, 7, 8};
  for (std::int32_t a = 0; a < 8; ++a) paper_m.match(a, stated[a]);
  const core::SwitchingEngine engine(inst, rg, paper_m, ws);
  for (std::int32_t p = 0; p < inst.total_posts(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (engine.pseudoforest().next[pi] != pram::kNone) {
      std::printf("p%d -> p%d  (a%d)\n", p + 1, engine.pseudoforest().next[pi] + 1,
                  engine.out_applicant()[pi] + 1);
    }
  }
  std::printf("switching cycles: %zu; switching paths start at:", engine.analysis().cycles.size());
  for (const auto q : engine.menu().starts) std::printf(" p%d", q + 1);
  std::printf("\n");

  const auto sm_inst = fig5();
  std::printf("\n=== Figure 5: stable marriage instance of size 8 ===\n");
  for (std::int32_t m = 0; m < 8; ++m) {
    std::printf("m%d :", m + 1);
    for (const auto w : sm_inst.man_prefs(m)) std::printf(" w%d", w + 1);
    std::printf("\n");
  }
  for (std::int32_t w = 0; w < 8; ++w) {
    std::printf("w%d :", w + 1);
    for (const auto m : sm_inst.woman_prefs(w)) std::printf(" m%d", m + 1);
    std::printf("\n");
  }

  const auto m_fig5 = stable::MarriageMatching::from_wife_of({7, 2, 4, 5, 6, 0, 1, 3});
  std::printf("\n=== Figure 6: reduced lists (partner, then s_M) for M ===\n");
  for (std::int32_t man = 0; man < 8; ++man) {
    const auto s = stable::s_m(sm_inst, m_fig5, man);
    std::printf("m%d : w%d", man + 1, m_fig5.wife_of[static_cast<std::size_t>(man)] + 1);
    if (s != stable::kNone) std::printf(" w%d ...", s + 1);
    std::printf("\n");
  }

  std::printf("\n=== Figure 7: the switching graph H_M — exposed rotations ===\n");
  const auto next = stable::next_stable_matchings(sm_inst, m_fig5, ws);
  for (const auto& rho : next.rotations) {
    std::printf("rotation:");
    for (const auto& [man, woman] : rho.pairs) std::printf(" (m%d,w%d)", man + 1, woman + 1);
    std::printf("\n");
  }
  return 0;
}
