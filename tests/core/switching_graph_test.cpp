// The switching graph G_M (Section IV): Lemma 4's structure, Figure 4 of
// the paper, max-card selection, and switch application.

#include "core/switching_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "support/switching_oracle.hpp"
#include "test_util.hpp"

namespace ncpm::core {
namespace {

/// The paper's stated matching for instance I, as a Matching object.
matching::Matching paper_matching(const Instance& inst) {
  matching::Matching m(inst.num_applicants(), inst.total_posts());
  const auto posts = ncpm::test::fig1_paper_matching();
  for (std::size_t a = 0; a < posts.size(); ++a) {
    m.match(static_cast<std::int32_t>(a), posts[a]);
  }
  return m;
}

TEST(SwitchingGraph, Figure4Structure) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const SwitchingEngine engine(inst, rg, paper_matching(inst), ws);

  // Edges of Figure 4 (source post -> target post, labelled by applicant):
  // p1->p2 (a1), p2->p4 (a2), p4->p3 (a3), p3->p1 (a4), p5->p2 (a5),
  // p7->p6 (a6), p8->p7 (a7), p9->p7 (a8).
  const auto& pf = engine.pseudoforest();
  EXPECT_EQ(pf.next[0], 1);
  EXPECT_EQ(pf.next[1], 3);
  EXPECT_EQ(pf.next[3], 2);
  EXPECT_EQ(pf.next[2], 0);
  EXPECT_EQ(pf.next[4], 1);
  EXPECT_EQ(pf.next[6], 5);
  EXPECT_EQ(pf.next[7], 6);
  EXPECT_EQ(pf.next[8], 6);
  EXPECT_EQ(engine.out_applicant()[0], 0);
  EXPECT_EQ(engine.out_applicant()[8], 7);

  // One switching cycle: p1 -> p2 -> p4 -> p3 -> p1.
  const auto& analysis = engine.analysis();
  EXPECT_TRUE(analysis.on_cycle[0]);
  EXPECT_TRUE(analysis.on_cycle[1]);
  EXPECT_TRUE(analysis.on_cycle[3]);
  EXPECT_TRUE(analysis.on_cycle[2]);
  EXPECT_FALSE(analysis.on_cycle[4]);  // p5 hangs off the cycle component
  EXPECT_EQ(analysis.cycle_length[0], 4);

  // Tree component {p6, p7, p8, p9}: sink p6 (unmatched s-post), switching
  // paths start from the s-post vertices p8 and p9 (Lemma 4 + Fig. 4).
  EXPECT_TRUE(pf.is_sink(5));
  const auto label = analysis.component[5];
  EXPECT_EQ(analysis.component[6], label);
  EXPECT_EQ(analysis.component[7], label);
  EXPECT_EQ(analysis.component[8], label);

  // The menu: the cycle component {p1..p5} (first edge at p1) offers its
  // cycle rooted at p1; the tree component offers the paths from p8 and p9.
  const auto menu = engine.menu();
  ASSERT_EQ(menu.entries.size(), 2u);
  EXPECT_EQ(menu.entries[0].cycle_root, 0);
  EXPECT_TRUE(menu.starts_of(menu.entries[0]).empty());
  EXPECT_EQ(menu.entries[1].cycle_root, kNone);
  const auto starts = menu.starts_of(menu.entries[1]);
  EXPECT_EQ(std::vector<std::int32_t>(starts.begin(), starts.end()),
            (std::vector<std::int32_t>{7, 8}));
}

/// The seeded instances of the Lemma 4 and menu tests.
Instance lemma4_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 80;
  cfg.num_posts = 140;
  cfg.all_f_fraction = 0.2;
  cfg.contention = 2.0;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

TEST(SwitchingGraph, Lemma4PropertiesOnRandomInstances) {
  pram::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = lemma4_instance(seed);
    const auto rg = build_reduced_graph(inst, ws);
    const auto m = find_popular_matching(inst, ws);
    ASSERT_TRUE(m.has_value());
    const SwitchingEngine engine(inst, rg, *m, ws);
    const auto& pf = engine.pseudoforest();
    const auto out = engine.out_applicant();
    for (std::int32_t p = 0; p < inst.total_posts(); ++p) {
      const auto pi = static_cast<std::size_t>(p);
      // (i) out-degree <= 1 by representation; edge labels are consistent.
      if (pf.next[pi] != pram::kNone) {
        ASSERT_NE(out[pi], kNone);
        EXPECT_EQ(m->right_of(out[pi]), p) << "edge source must be M(a)";
      }
      // (ii) a G_M vertex with no out-edge is an unmatched s-post.
      if (out[pi] == kNone && engine.is_s_post_vertex()[pi] != 0 && m->right_matched(p)) {
        // matched s-posts must carry an out-edge
        ADD_FAILURE() << "matched s-post " << p << " has no out-edge";
      }
    }
  }
}

/// One component's switches, found the slow way: a full vertex scan per
/// component, straight from the cycle analysis.
struct NaiveComponent {
  std::int32_t cycle_root = kNone;
  std::vector<std::int32_t> starts;
};

std::vector<NaiveComponent> naive_grouping(const SwitchingEngine& engine) {
  const auto& analysis = engine.analysis();
  const auto out = engine.out_applicant();
  const auto s_post = engine.is_s_post_vertex();
  const std::size_t n = out.size();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NaiveComponent> comps;
  for (std::size_t v = 0; v < n; ++v) {
    if (out[v] == kNone) continue;
    const std::int32_t label = analysis.component[v];
    if (seen[static_cast<std::size_t>(label)] != 0) continue;
    seen[static_cast<std::size_t>(label)] = 1;
    NaiveComponent comp;
    bool has_cycle = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (analysis.component[u] != label || analysis.on_cycle[u] == 0) continue;
      has_cycle = true;
      if (analysis.cycle_root[u] == static_cast<std::int32_t>(u)) {
        EXPECT_EQ(comp.cycle_root, kNone) << "component " << label << " has two cycle roots";
        comp.cycle_root = static_cast<std::int32_t>(u);
      }
    }
    for (std::size_t u = 0; u < n && !has_cycle; ++u) {
      if (analysis.component[u] == label && s_post[u] != 0 && out[u] != kNone) {
        comp.starts.push_back(static_cast<std::int32_t>(u));
      }
    }
    comps.push_back(std::move(comp));
  }
  return comps;
}

TEST(SwitchingGraph, MenuMatchesNaiveGrouping) {
  pram::Workspace ws;
  // The eight Lemma 4 instances are planted tree-only switching graphs that
  // count 6e9..1.4e11 popular matchings, too many to enumerate. Eight small
  // random instances (the solvable ones) add cycle components and counts
  // small enough to cross-check against the Theorem 9 enumeration.
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) instances.push_back(lemma4_instance(seed));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 20;
    cfg.num_posts = 20;
    cfg.seed = seed;
    instances.push_back(gen::random_strict_instance(cfg));
  }
  std::size_t cycles = 0;
  std::size_t enumerated = 0;
  for (std::size_t k = 0; k < instances.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "instance " << k);
    const auto& inst = instances[k];
    const auto m = find_popular_matching(inst, ws);
    if (!m.has_value()) continue;
    const auto rg = build_reduced_graph(inst, ws);
    const SwitchingEngine engine(inst, rg, *m, ws);
    const auto menu = engine.menu();
    const auto naive = naive_grouping(engine);
    ASSERT_EQ(menu.entries.size(), naive.size());
    std::size_t total_starts = 0;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      const auto& entry = menu.entries[i];
      const auto starts = menu.starts_of(entry);
      EXPECT_EQ(entry.cycle_root, naive[i].cycle_root) << "entry " << i;
      EXPECT_EQ(std::vector<std::int32_t>(starts.begin(), starts.end()), naive[i].starts)
          << "entry " << i;
      EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
      if (entry.cycle_root != kNone) ++cycles;
      total_starts += starts.size();
    }
    EXPECT_EQ(menu.starts.size(), total_starts);

    // Theorem 9 twice: the menu's product must equal the enumeration's size.
    const auto count = count_popular_matchings(inst, ws);
    ASSERT_TRUE(count.has_value());
    if (*count <= 4096) {
      EXPECT_EQ(*count, test::all_popular_matchings_via_switching(inst, rg, *m, ws).size());
      ++enumerated;
    }
  }
  EXPECT_GT(cycles, 0u) << "no instance had a cycle component";
  EXPECT_GT(enumerated, 0u) << "no instance was small enough to enumerate";
}

TEST(SwitchingGraph, MarginsOfPaperInstanceAreNonPositive) {
  pram::Workspace ws;
  // All applicants of instance I sit on real posts in the stated matching,
  // so every switch has margin 0 under the Definition 4 values and
  // Algorithm 3 must change nothing.
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const auto m = paper_matching(inst);
  EXPECT_EQ(optimize_popular(inst, rg, m, Objective::kMaxCardinality, ws), m);
}

TEST(SwitchingGraph, ApplyCycleSwitchesEveryCycleApplicant) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const auto m = paper_matching(inst);
  const SwitchingEngine engine(inst, rg, m, ws);
  // Apply the unique switching cycle (root = p1 = 0).
  const auto result = engine.apply(std::vector<SwitchingEngine::Choice>{{0, true}}, ws);
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, result));
  // a1..a4 switched, a5..a8 untouched.
  EXPECT_EQ(result.right_of(0), 1);  // a1: p1 -> p2
  EXPECT_EQ(result.right_of(1), 3);  // a2: p2 -> p4
  EXPECT_EQ(result.right_of(2), 2);  // a3: p4 -> p3
  EXPECT_EQ(result.right_of(3), 0);  // a4: p3 -> p1
  EXPECT_EQ(result.right_of(4), 4);
  EXPECT_EQ(result.right_of(7), 8);
}

TEST(SwitchingGraph, ApplyPathMovesPrefixToSink) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const auto m = paper_matching(inst);
  const SwitchingEngine engine(inst, rg, m, ws);
  // Switching path from p9 (= 8): a8 moves p9 -> p7, a6 moves p7 -> p6;
  // a7 (on the p8 branch) must not move.
  const auto result = engine.apply(std::vector<SwitchingEngine::Choice>{{8, false}}, ws);
  EXPECT_TRUE(satisfies_popular_characterization(inst, rg, result));
  EXPECT_EQ(result.right_of(7), 6);  // a8 -> p7
  EXPECT_EQ(result.right_of(5), 5);  // a6 -> p6
  EXPECT_EQ(result.right_of(6), 7);  // a7 stays on p8
  EXPECT_FALSE(result.right_matched(8));  // p9 released
}

/// A single switching path of L steps (L even): posts p_0 -> ... -> p_L,
/// applicant a_i matched to p_i. Odd-index posts are f-posts (a_i and
/// a_{i-1} rank p_i first for odd i), even-index posts are s-posts, so a_i
/// switches to p_{i+1} and p_0 starts a path with exactly L steps.
struct PathInstance {
  Instance inst;
  matching::Matching m;
};

PathInstance switching_path(std::int32_t steps) {
  std::vector<std::vector<std::int32_t>> lists;
  for (std::int32_t i = 0; i < steps; ++i) {
    lists.push_back(i % 2 == 0 ? std::vector<std::int32_t>{i + 1, i}
                               : std::vector<std::int32_t>{i, i + 1});
  }
  PathInstance out{Instance::strict(steps + 1, std::move(lists)), {}};
  out.m = matching::Matching(out.inst.num_applicants(), out.inst.total_posts());
  for (std::int32_t i = 0; i < steps; ++i) out.m.match(i, i);
  return out;
}

TEST(SwitchingGraph, ApplyPathWithPowerOfTwoSteps) {
  // steps(q*) = 2^k is the largest lift apply() needs: it takes lifting
  // level k, the last one the tables hold.
  for (const std::int32_t steps : {2, 4, 8, 16, 64, 6, 62}) {
    const auto [inst, m] = switching_path(steps);
    pram::Workspace ws;
    const auto rg = build_reduced_graph(inst, ws);
    const SwitchingEngine engine(inst, rg, m, ws);
    ASSERT_FALSE(engine.analysis().on_cycle[0]);
    // Every even-index post starts a path; applicants from it onwards move.
    for (std::int32_t start = 0; start < steps; start += 2) {
      const auto result = engine.apply(std::vector<SwitchingEngine::Choice>{{start, false}}, ws);
      EXPECT_TRUE(satisfies_popular_characterization(inst, rg, result))
          << "steps=" << steps << " start=" << start;
      for (std::int32_t a = 0; a < steps; ++a) {
        EXPECT_EQ(result.right_of(a), a < start ? a : a + 1)
            << "steps=" << steps << " start=" << start << " a=" << a;
      }
    }
  }
}

TEST(SwitchingGraph, ApplyRejectsBadChoices) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  const SwitchingEngine engine(inst, rg, paper_matching(inst), ws);
  // p5 (= 4) is an f-post... no: p5 is an f-post vertex, not an s-post, so
  // it cannot start a switching path.
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{4, false}}, ws),
               std::invalid_argument);
  // p6 is the sink: no out-edge, not a valid start either.
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{5, false}}, ws),
               std::invalid_argument);
  // p2 is on the cycle but is not its root (p1 = 0 is).
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{1, true}}, ws),
               std::invalid_argument);
  // Two switches in one component.
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{7, false}, {8, false}}, ws),
               std::invalid_argument);
  // Keys outside the post vertices.
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{-1, true}}, ws),
               std::invalid_argument);
  EXPECT_THROW(engine.apply(std::vector<SwitchingEngine::Choice>{{inst.total_posts(), false}}, ws),
               std::invalid_argument);
}

TEST(SwitchingGraph, MatchingOutsideReducedGraphRejected) {
  pram::Workspace ws;
  const auto inst = ncpm::test::fig1_instance();
  const auto rg = build_reduced_graph(inst, ws);
  matching::Matching bad(inst.num_applicants(), inst.total_posts());
  // a1 to p6 (rank: not on a1's reduced list).
  bad.match(0, 5);
  for (std::int32_t a = 1; a < 8; ++a) bad.match(a, ncpm::test::fig1_paper_matching()[static_cast<std::size_t>(a)]);
  EXPECT_THROW(SwitchingEngine(inst, rg, bad, ws), std::invalid_argument);
}

}  // namespace
}  // namespace ncpm::core
