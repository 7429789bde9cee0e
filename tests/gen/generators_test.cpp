// Workload generators: planted properties, determinism, validation.

#include "gen/generators.hpp"

#include <gtest/gtest.h>

#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/stability.hpp"

namespace ncpm::gen {
namespace {

TEST(Generators, RandomStrictRespectsBoundsAndSeedDeterminism) {
  StrictConfig cfg;
  cfg.num_applicants = 50;
  cfg.num_posts = 30;
  cfg.list_min = 2;
  cfg.list_max = 7;
  cfg.seed = 123;
  const auto a = random_strict_instance(cfg);
  const auto b = random_strict_instance(cfg);
  ASSERT_EQ(a.num_applicants(), 50);
  for (std::int32_t x = 0; x < a.num_applicants(); ++x) {
    EXPECT_GE(a.list_length(x), 2u);
    EXPECT_LE(a.list_length(x), 7u);
    const auto pa = a.posts_of(x);
    const auto pb = b.posts_of(x);
    EXPECT_EQ(std::vector<std::int32_t>(pa.begin(), pa.end()),
              std::vector<std::int32_t>(pb.begin(), pb.end()));
  }
  cfg.seed = 124;
  const auto c = random_strict_instance(cfg);
  bool any_difference = false;
  for (std::int32_t x = 0; x < a.num_applicants() && !any_difference; ++x) {
    const auto pa = a.posts_of(x);
    const auto pc = c.posts_of(x);
    any_difference = !std::equal(pa.begin(), pa.end(), pc.begin(), pc.end());
  }
  EXPECT_TRUE(any_difference) << "different seeds should differ";
}

TEST(Generators, SolvableAlwaysAdmitsPopularMatching) {
  pram::Workspace ws;
  for (const double contention : {1.0, 2.0, 4.0, 8.0}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SolvableConfig cfg;
      cfg.num_applicants = 64;
      cfg.num_posts = 160;
      cfg.all_f_fraction = 0.3;
      cfg.contention = contention;
      cfg.seed = seed;
      const auto inst = solvable_strict_instance(cfg);
      EXPECT_TRUE(core::find_popular_matching(inst, ws).has_value())
          << "contention " << contention << " seed " << seed;
    }
  }
}

TEST(Generators, SolvableContentionSharesFirstChoices) {
  pram::Workspace ws;
  SolvableConfig cfg;
  cfg.num_applicants = 100;
  cfg.num_posts = 250;
  cfg.contention = 5.0;
  cfg.seed = 9;
  const auto inst = solvable_strict_instance(cfg);
  const auto rg = core::build_reduced_graph(inst, ws);
  // With contention 5 the number of distinct f-posts must be well below
  // the number of applicants.
  EXPECT_LT(rg.num_f_posts(), 50u);
}

TEST(Generators, SolvableValidation) {
  SolvableConfig cfg;
  cfg.num_applicants = 100;
  cfg.num_posts = 120;  // < n_a + n_a/contention for contention 1
  EXPECT_THROW(solvable_strict_instance(cfg), std::invalid_argument);
  cfg.num_posts = 300;
  cfg.contention = 0.5;
  EXPECT_THROW(solvable_strict_instance(cfg), std::invalid_argument);
  cfg.contention = 1.0;
  cfg.list_min = 1;  // planted s-target needs room after f
  EXPECT_THROW(solvable_strict_instance(cfg), std::invalid_argument);
}

TEST(Generators, ContentionInstanceRejectsTiny) {
  EXPECT_THROW(contention_instance(2), std::invalid_argument);
}

TEST(Generators, BinaryTreeShape) {
  pram::Workspace ws;
  const auto inst = binary_tree_instance(3);
  EXPECT_EQ(inst.num_posts(), 15);       // 2^4 - 1 nodes
  EXPECT_EQ(inst.num_applicants(), 14);  // one per edge
  const auto rg = core::build_reduced_graph(inst, ws);
  // Every applicant's reduced pair is a tree edge {v, parent(v)}.
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto ai = static_cast<std::size_t>(a);
    const std::int32_t lo = std::min(rg.f_post[ai], rg.s_post[ai]);
    const std::int32_t hi = std::max(rg.f_post[ai], rg.s_post[ai]);
    EXPECT_EQ(lo, (hi - 1) / 2) << "edge must join child and parent";
  }
  EXPECT_THROW(binary_tree_instance(0), std::invalid_argument);
}

TEST(Generators, TiesInstanceHasTies) {
  TiesConfig cfg;
  cfg.num_applicants = 40;
  cfg.num_posts = 20;
  cfg.list_min = 3;
  cfg.list_max = 6;
  cfg.tie_prob = 1.0;  // everything ties into one group
  cfg.seed = 2;
  const auto inst = random_ties_instance(cfg);
  EXPECT_FALSE(inst.strict_prefs());
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    EXPECT_EQ(inst.num_ranks(a), 1) << "tie_prob 1 must collapse to one group";
  }
  cfg.tie_prob = 0.0;
  const auto strict = random_ties_instance(cfg);
  EXPECT_TRUE(strict.strict_prefs());
}

TEST(Generators, RandomBipartiteDegreesAreDistinct) {
  const auto g = random_bipartite(30, 20, 4.0, 77);
  for (std::int32_t l = 0; l < g.n_left(); ++l) {
    std::vector<std::int32_t> nbrs;
    for (const auto e : g.left_incident(l)) {
      nbrs.push_back(g.edge_right(static_cast<std::size_t>(e)));
    }
    std::sort(nbrs.begin(), nbrs.end());
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end())
        << "duplicate neighbour at left " << l;
  }
}

TEST(StableGenerators, RandomInstancesAreValidAndSeeded) {
  pram::Workspace ws;
  const auto a = random_stable_instance(12, 5);
  const auto b = random_stable_instance(12, 5);
  for (std::int32_t m = 0; m < 12; ++m) {
    EXPECT_EQ(std::vector<std::int32_t>(a.man_prefs(m).begin(), a.man_prefs(m).end()),
              std::vector<std::int32_t>(b.man_prefs(m).begin(), b.man_prefs(m).end()));
  }
  // Gale-Shapley must work on them (validity smoke test).
  const auto m0 = stable::man_optimal(a);
  EXPECT_TRUE(stable::is_stable(a, m0, ws));
}

TEST(StableGenerators, CyclicInstanceIsValid) {
  pram::Workspace ws;
  const auto inst = cyclic_stable_instance(7);
  const auto m0 = stable::man_optimal(inst);
  EXPECT_TRUE(stable::is_stable(inst, m0, ws));
}

}  // namespace
}  // namespace ncpm::gen
