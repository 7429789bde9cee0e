// Randomized oracle layer, property (d): the executor width is an execution
// detail — results of the NC pipeline must be *byte-identical* across
// 1..8-lane executors on every seeded instance family. No global thread
// state is touched: each width gets its own pram::Executor, bound to the
// pipeline through a pram::Workspace. (Concurrent dispatch — several
// threads driving executors at once — is exercised separately by
// executor_test and the engine's nested-composition TSan gate; the sweeps
// here run one width at a time.)

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "matching/matching.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace ncpm::core {
namespace {

constexpr std::uint64_t kSweepSize = 20;
constexpr int kLaneCounts[] = {1, 2, 3, 4, 8};

class ThreadInvariance : public ::testing::TestWithParam<std::uint64_t> {};

// Run the pipeline once per executor width and compare against the serial
// reference: the matching must be byte-identical (the pipeline is
// deterministic — every CRCW write is order-independent), and must satisfy
// the Theorem 1 characterization. A width-dependent answer is a
// synchronization bug.
void ExpectInvariantAcrossLanes(const Instance& inst, std::uint64_t seed) {
  pram::Executor serial(1);
  pram::Workspace serial_ws(serial);
  const auto rg = build_reduced_graph(inst, serial_ws);
  const auto reference = find_popular_matching(inst, serial_ws);
  for (const int lanes : kLaneCounts) {
    pram::Executor ex(lanes);
    pram::Workspace ws(ex);
    const auto m = find_popular_matching(inst, ws);
    ASSERT_EQ(m.has_value(), reference.has_value()) << "seed " << seed << " lanes " << lanes;
    if (m.has_value()) {
      EXPECT_TRUE(satisfies_popular_characterization(inst, rg, *m))
          << "seed " << seed << " lanes " << lanes;
      EXPECT_TRUE(*m == *reference) << "seed " << seed << " lanes " << lanes
                                    << ": matching differs from the serial reference";
    }
  }
}

TEST_P(ThreadInvariance, RandomStrictInstances) {
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 40 + static_cast<std::int32_t>(round % 5) * 30;
    cfg.num_posts = 50 + static_cast<std::int32_t>(round % 3) * 40;
    cfg.list_min = 1;
    cfg.list_max = 6;
    cfg.seed = GetParam() * 10'000 + round;
    ExpectInvariantAcrossLanes(gen::random_strict_instance(cfg), cfg.seed);
  }
}

TEST_P(ThreadInvariance, SolvableFamilies) {
  for (std::uint64_t round = 0; round < kSweepSize; ++round) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 60 + static_cast<std::int32_t>(round % 4) * 30;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.all_f_fraction = (round % 3) * 0.25;
    cfg.contention = 1.0 + (round % 4);
    cfg.seed = GetParam() * 10'000 + round;
    ExpectInvariantAcrossLanes(gen::solvable_strict_instance(cfg), cfg.seed);
  }
}

TEST_P(ThreadInvariance, AdversarialFamilies) {
  // Binary trees stress the Lemma 2 peeling depth; contention families must
  // report "no popular matching" under every executor width.
  for (std::int32_t depth = 1; depth <= 5; ++depth) {
    ExpectInvariantAcrossLanes(gen::binary_tree_instance(depth),
                               static_cast<std::uint64_t>(depth));
  }
  for (std::int32_t n = 3; n <= 7; ++n) {
    const auto inst = gen::contention_instance(n);
    for (const int lanes : kLaneCounts) {
      pram::Executor ex(lanes);
      pram::Workspace ws(ex);
      EXPECT_FALSE(find_popular_matching(inst, ws).has_value()) << "n " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadInvariance, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ncpm::core
