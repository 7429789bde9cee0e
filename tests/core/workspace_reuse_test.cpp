// The zero-allocation round engine's correctness and steady-state
// guarantees: reusing one workspace across pipeline invocations (different
// instances, stale buffer contents) must not change any result, the
// while-loop must not grow the workspace after its first round, and the
// alive-edge compaction path — including rounds that shrink the alive set
// all the way to zero — must agree with the sequential oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/abraham_baseline.hpp"
#include "core/applicant_complete.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "matching/matching.hpp"
#include "pram/workspace.hpp"
#include "support/popular_oracle.hpp"

namespace ncpm::core {
namespace {

std::vector<core::Instance> mixed_instances() {
  std::vector<core::Instance> out;
  {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 400;
    cfg.num_posts = 1200;
    cfg.contention = 2.0;
    cfg.all_f_fraction = 0.25;
    cfg.seed = 101;
    out.push_back(gen::solvable_strict_instance(cfg));
  }
  {
    gen::StrictConfig cfg;
    cfg.num_applicants = 300;
    cfg.num_posts = 260;
    cfg.list_min = 2;
    cfg.list_max = 6;
    cfg.zipf_s = 0.9;
    cfg.seed = 7;
    out.push_back(gen::random_strict_instance(cfg));  // may be unsolvable
  }
  out.push_back(gen::binary_tree_instance(7));
  out.push_back(gen::contention_instance(5));  // unsolvable
  {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 120;  // smaller than the first: buffers shrink
    cfg.num_posts = 400;
    cfg.contention = 4.0;
    cfg.seed = 33;
    out.push_back(gen::solvable_strict_instance(cfg));
  }
  return out;
}

// Running the full NC pipeline through one shared workspace — across
// instances of different sizes and solvability — must give bit-identical
// results to fresh-workspace runs.
TEST(WorkspaceReuse, SharedWorkspaceMatchesFreshWorkspaceAcrossInstances) {
  pram::Workspace shared;
  for (const auto& inst : mixed_instances()) {
    PopularRunStats shared_stats;
    const auto with_shared = find_popular_matching(inst, shared, &shared_stats);
    PopularRunStats fresh_stats;
    pram::Workspace fresh;
    const auto with_fresh = find_popular_matching(inst, fresh, &fresh_stats);
    ASSERT_EQ(with_shared.has_value(), with_fresh.has_value());
    EXPECT_EQ(shared_stats.while_rounds, fresh_stats.while_rounds);
    if (with_shared.has_value()) {
      for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
        ASSERT_EQ(with_shared->right_of(a), with_fresh->right_of(a)) << "applicant " << a;
      }
    }
  }
}

// The tentpole guarantee: after the first while-round the round engine
// leases every buffer from warm pools — zero workspace growth in any later
// round. The binary-tree family maximises round count (Lemma 2 worst case).
TEST(WorkspaceReuse, NoWorkspaceGrowthAfterFirstRound) {
  const auto inst = gen::binary_tree_instance(8);
  PopularRunStats stats;
  pram::Workspace ws;
  const auto m = find_popular_matching(inst, ws, &stats);
  (void)m;
  ASSERT_GE(stats.while_rounds, 7u);  // one round per peeled level
  EXPECT_EQ(stats.workspace_allocs_later_rounds, 0u);
}

// With a workspace warmed by a previous solve of an instance at least as
// large, even the first round allocates nothing: the steady state of a
// server solving a stream of instances.
TEST(WorkspaceReuse, WarmWorkspaceMakesEveryRoundAllocationFree) {
  pram::Workspace ws;
  const auto warmup = gen::binary_tree_instance(8);
  (void)find_popular_matching(warmup, ws);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 250;
    cfg.num_posts = 800;
    cfg.contention = 2.0;
    cfg.seed = seed;
    PopularRunStats stats;
    const auto m = find_popular_matching(gen::solvable_strict_instance(cfg), ws, &stats);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(stats.workspace_allocs_first_round, 0u) << "seed " << seed;
    EXPECT_EQ(stats.workspace_allocs_later_rounds, 0u) << "seed " << seed;
  }
}

// Disjoint f/s paths: every edge is matched or deleted in round one, so the
// compaction leaves an empty alive-edge array for the loop's final check —
// the alive set shrinks to zero and the engine must cope.
TEST(WorkspaceReuse, AliveEdgeSetShrinkingToZeroIsHandled) {
  const std::int32_t n = 64;
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
  for (std::int32_t a = 0; a < n; ++a) {
    lists[static_cast<std::size_t>(a)] = {2 * a, 2 * a + 1};
  }
  const auto inst = core::Instance::strict(2 * n, std::move(lists));
  pram::Workspace ws;
  const auto rg = build_reduced_graph(inst, ws);
  const auto ac = applicant_complete_matching(inst, rg, ws);
  ASSERT_TRUE(ac.exists);
  EXPECT_EQ(ac.while_rounds, 1u);
  // Both path ends have degree 1; the traversal from the smaller vertex id
  // (the f-post) acts and matches the rank-1 edge.
  for (std::int32_t a = 0; a < n; ++a) {
    EXPECT_EQ(ac.post_of[static_cast<std::size_t>(a)], 2 * a) << "applicant " << a;
  }
}

// Oracle sweep over large sparse instances: long induced paths force many
// compaction rounds; the NC result must tie with the sequential baseline
// vote-for-vote, sharing one workspace across the whole sweep.
TEST(WorkspaceReuse, LargeSparseCompactionSweepAgreesWithOracle) {
  pram::Workspace ws;
  for (std::int32_t depth = 6; depth <= 10; ++depth) {
    const auto inst = gen::binary_tree_instance(depth);
    const auto nc = find_popular_matching(inst, ws);
    const auto seq = find_popular_matching_sequential(inst);
    ASSERT_EQ(nc.has_value(), seq.has_value()) << "depth " << depth;
    if (nc.has_value()) {
      EXPECT_EQ(test::popularity_votes(inst, *nc, *seq), 0) << "depth " << depth;
    }
  }
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 1500;
    cfg.num_posts = 4000;
    cfg.list_min = 2;
    cfg.list_max = 3;  // sparse lists
    cfg.contention = 2.0 + static_cast<double>(seed % 3);
    cfg.seed = 900 + seed;
    const auto inst = gen::solvable_strict_instance(cfg);
    const auto nc = find_popular_matching(inst, ws);
    const auto seq = find_popular_matching_sequential(inst);
    ASSERT_EQ(nc.has_value(), seq.has_value()) << "seed " << cfg.seed;
    ASSERT_TRUE(nc.has_value()) << "seed " << cfg.seed;
    EXPECT_EQ(test::popularity_votes(inst, *nc, *seq), 0) << "seed " << cfg.seed;
  }
}

}  // namespace
}  // namespace ncpm::core
