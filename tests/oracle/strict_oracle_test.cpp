// Randomized oracle layer, strict instances: the NC pipeline is checked
// against independent evidence on seeded random sweeps — the sequential
// Abraham et al. baseline (existence + mutual popularity), the Theorem 1
// characterization, and on tiny instances Definition 1 itself
// (tests/support/popular_oracle.hpp).

#include <gtest/gtest.h>

#include <cstdint>

#include "core/abraham_baseline.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "support/popular_oracle.hpp"

namespace ncpm::core {
namespace {

constexpr std::uint64_t kSweepSize = 24;  // seeded instances per property

class StrictOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Property (a): on arbitrary random instances the NC pipeline and the
// sequential baseline agree on existence, and when both produce a matching
// neither output is more popular than the other (two popular matchings tie).
TEST_P(StrictOracle, NcAgreesWithAbrahamBaselineOnRandomInstances) {
  pram::Workspace ws;
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 30 + static_cast<std::int32_t>(round % 5) * 25;
    cfg.num_posts = 40 + static_cast<std::int32_t>(round % 7) * 20;
    cfg.list_min = 1;
    cfg.list_max = 6;
    cfg.zipf_s = (round % 3) * 0.6;
    cfg.seed = GetParam() * 10'000 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto nc = find_popular_matching(inst, ws);
    const auto seq = find_popular_matching_sequential(inst);
    ASSERT_EQ(nc.has_value(), seq.has_value()) << "seed " << cfg.seed;
    if (nc.has_value()) {
      // Two popular matchings always tie in votes; their *sizes* may differ
      // (that is what max_card_popular is for), so size is not asserted.
      EXPECT_EQ(test::popularity_votes(inst, *nc, *seq), 0) << "seed " << cfg.seed;
    }
  }
}

// Property (b): on planted-solvable families a popular matching must exist
// and both algorithms' outputs must satisfy the Theorem 1 characterization.
TEST_P(StrictOracle, SolvableFamiliesYieldCharacterizedMatchings) {
  pram::Workspace ws;
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 50 + static_cast<std::int32_t>(round % 4) * 40;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.all_f_fraction = (round % 4) * 0.2;
    cfg.contention = 1.0 + (round % 5) * 0.75;
    cfg.seed = GetParam() * 10'000 + round;
    const auto inst = gen::solvable_strict_instance(cfg);
    const auto rg = build_reduced_graph(inst, ws);
    const auto nc = find_popular_matching(inst, ws);
    const auto seq = find_popular_matching_sequential(inst);
    ASSERT_TRUE(nc.has_value()) << "seed " << cfg.seed;
    ASSERT_TRUE(seq.has_value()) << "seed " << cfg.seed;
    EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *nc)) << "seed " << cfg.seed;
    EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *seq)) << "seed " << cfg.seed;
    EXPECT_TRUE(is_valid_assignment(inst, *nc)) << "seed " << cfg.seed;
    EXPECT_TRUE(is_applicant_complete(inst, *nc)) << "seed " << cfg.seed;
    EXPECT_EQ(test::popularity_votes(inst, *nc, *seq), 0) << "seed " << cfg.seed;
  }
}

// Property (c): on tiny instances, literal popularity by enumeration of every
// assignment (Definition 1) confirms the NC output, and the full brute-force
// popular set is empty exactly when the pipeline reports none.
TEST_P(StrictOracle, TinyInstancesMatchLiteralBruteForce) {
  pram::Workspace ws;
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 3 + static_cast<std::int32_t>(round % 4);
    cfg.num_posts = 3 + static_cast<std::int32_t>(round % 3);
    cfg.list_min = 1;
    cfg.list_max = 3;
    cfg.seed = GetParam() * 10'000 + round;
    const auto inst = gen::random_strict_instance(cfg);
    const auto nc = find_popular_matching(inst, ws);
    const auto all_popular = test::all_popular_matchings_bruteforce(inst);
    ASSERT_EQ(nc.has_value(), !all_popular.empty()) << "seed " << cfg.seed;
    if (nc.has_value()) {
      EXPECT_TRUE(test::is_popular(inst, *nc)) << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictOracle, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ncpm::core
