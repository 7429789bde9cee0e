// Nested parallelism oracle: the engine's two axes — worker concurrency x
// executor lanes per worker — must compose without changing a single byte
// of output. For every workers ∈ {1,2,4} x lanes ∈ {1,2,4} the same mixed
// batch must produce matchings identical to the sequential baseline
// (SerialExecutor, one call at a time), and once the per-worker workspaces
// are warm, further identical rounds must allocate nothing
// (ws_allocs_steady == 0). This binary is part of the ThreadSanitizer CI
// gate: two workers running internally-parallel solves concurrently is
// exactly the surface the old process-global OpenMP state could not serve.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "matching/matching.hpp"
#include "pram/executor.hpp"
#include "pram/simd.hpp"
#include "pram/workspace.hpp"

namespace ncpm::engine {
namespace {

std::vector<core::Instance> oracle_instances() {
  std::vector<core::Instance> instances;
  for (int i = 0; i < 4; ++i) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 60 + 30 * i;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.contention = 1.5 + 0.5 * i;
    cfg.all_f_fraction = 0.25;
    cfg.seed = 4200 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  for (int i = 0; i < 2; ++i) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 50 + 25 * i;
    cfg.num_posts = 40 + 30 * i;
    cfg.seed = 77 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::random_strict_instance(cfg));
  }
  instances.push_back(gen::binary_tree_instance(6));  // chain-heavy rounds
  instances.push_back(gen::contention_instance(6));   // no popular matching
  return instances;
}

struct Reference {
  Mode mode;
  std::optional<matching::Matching> matching;
};

/// Sequential baseline: every request solved one at a time on a
/// SerialExecutor-bound workspace.
std::vector<Reference> sequential_reference(const std::vector<core::Instance>& instances) {
  pram::SerialExecutor serial;
  pram::Workspace ws(serial);
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Mode mode = i % 2 == 0 ? Mode::kSolve : Mode::kMaxCard;
    std::optional<matching::Matching> m;
    if (mode == Mode::kSolve) {
      m = core::find_popular_matching(instances[i], ws);
    } else {
      m = core::find_max_card_popular(instances[i], ws);
    }
    refs.push_back({mode, std::move(m)});
  }
  return refs;
}

std::vector<Request> make_batch(const std::vector<core::Instance>& instances,
                                const std::vector<Reference>& refs) {
  std::vector<Request> batch;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    batch.push_back(Request::popular(refs[i].mode, instances[i]));
  }
  return batch;
}

void expect_round_matches(Engine& engine, const std::vector<core::Instance>& instances,
                          const std::vector<Reference>& refs, int workers, int lanes) {
  auto futures = engine.submit_batch(make_batch(instances, refs));
  ASSERT_EQ(futures.size(), refs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto res = futures[i].get();
    const auto& ref = refs[i];
    ASSERT_EQ(res.matching.has_value(), ref.matching.has_value())
        << "workers " << workers << " lanes " << lanes << " request " << i;
    if (ref.matching.has_value()) {
      EXPECT_TRUE(*res.matching == *ref.matching)
          << "workers " << workers << " lanes " << lanes << " request " << i
          << ": matching differs from the sequential baseline";
    } else {
      EXPECT_EQ(res.status, Status::kNoSolution);
    }
  }
}

TEST(NestedComposition, ByteIdenticalAcrossWorkerLaneGrid) {
  const auto instances = oracle_instances();
  const auto refs = sequential_reference(instances);

  for (const int workers : {1, 2, 4}) {
    for (const int lanes : {1, 2, 4}) {
      Engine engine({workers, lanes});
      ASSERT_EQ(engine.stats().lanes_per_worker, lanes);

      // Correctness: two rounds of the identical batch, both byte-identical
      // to the sequential baseline.
      expect_round_matches(engine, instances, refs, workers, lanes);
      expect_round_matches(engine, instances, refs, workers, lanes);
      engine.wait_idle();

      // Steady state (ws_allocs_steady == 0): pools only ever grow toward
      // the batch's maximal buffer shapes, so repeated identical rounds
      // converge; which worker draws which request varies, so a round is
      // two batch copies (denser shape coverage per worker) and the
      // property demanded is three *consecutive* such rounds with zero
      // workspace allocation on every worker.
      int zero_streak = 0;
      int round = 0;
      for (; round < 30 && zero_streak < 3; ++round) {
        const auto before = engine.stats().workspace_allocs_per_worker;
        expect_round_matches(engine, instances, refs, workers, lanes);
        expect_round_matches(engine, instances, refs, workers, lanes);
        engine.wait_idle();
        zero_streak = engine.stats().workspace_allocs_per_worker == before ? zero_streak + 1 : 0;
      }
      ASSERT_GE(zero_streak, 3)
          << "workers " << workers << " lanes " << lanes << ": workspaces still allocating after "
          << round << " identical rounds (ws_allocs_steady != 0)";
    }
  }
}

TEST(NestedComposition, ByteIdenticalAcrossSimdTiers) {
  // Third composition axis: the SIMD dispatch tier. The sequential baseline
  // is computed under a forced-scalar substrate; every tier (clamped to what
  // the CPU supports) across the workers x lanes grid must reproduce it
  // byte for byte.
  pram::force_simd_tier(pram::SimdTier::kScalar);
  const auto instances = oracle_instances();
  const auto refs = sequential_reference(instances);
  for (const pram::SimdTier tier :
       {pram::SimdTier::kScalar, pram::SimdTier::kAvx2}) {
    pram::force_simd_tier(tier);
    for (const int workers : {1, 2, 4}) {
      for (const int lanes : {1, 2, 4}) {
        Engine engine({workers, lanes});
        expect_round_matches(engine, instances, refs, workers, lanes);
      }
    }
  }
  pram::clear_forced_simd_tier();
}

TEST(NestedComposition, PerRequestLaneCapKeepsResultsIdentical) {
  const auto instances = oracle_instances();
  const auto refs = sequential_reference(instances);
  Engine engine({2, 4});
  std::vector<Request> batch;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    batch.push_back(Request::popular(refs[i].mode, instances[i])
                        .with_lanes(static_cast<int>(i % 4) + 1));
  }
  auto futures = engine.submit_batch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto res = futures[i].get();
    ASSERT_EQ(res.matching.has_value(), refs[i].matching.has_value()) << "request " << i;
    if (refs[i].matching.has_value()) {
      EXPECT_TRUE(*res.matching == *refs[i].matching) << "request " << i;
    }
  }
}

}  // namespace
}  // namespace ncpm::engine
