// Nested parallelism oracle: the engine's two axes — worker concurrency x
// executor lanes per worker — must compose without changing a single byte
// of output. For every workers ∈ {1,2,4} x lanes ∈ {1,2,4} the same mixed
// batch (every instance in solve, max-card, fair, rank-maximal and count,
// so the switch selector's CRCW rounds run on every lane count) must
// produce matchings and counts identical to the sequential baseline (a
// one-lane Executor, one call at a time), and once the per-worker
// workspaces are warm, further identical rounds must allocate nothing
// (ws_allocs_steady == 0). This binary is part of the ThreadSanitizer CI
// gate: two workers running internally-parallel solves concurrently is
// exactly the surface the old process-global OpenMP state could not serve.
// Next-stable (Algorithm 4) is pinned on the same grid: its doubling
// windows split the men still scanning into one block per lane, so block
// boundaries and the layout of the compacted runs follow the lane count,
// and the rotations and successors must still come out byte-identical.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/switching_graph.hpp"
#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "gen/stable_generators.hpp"
#include "matching/matching.hpp"
#include "pram/executor.hpp"
#include "pram/simd.hpp"
#include "pram/workspace.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

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
  std::size_t instance;
  Mode mode;
  std::optional<matching::Matching> matching;
  std::optional<std::uint64_t> count;
};

/// Sequential baseline: every request solved one at a time on a
/// workspace bound to a one-lane Executor.
std::vector<Reference> sequential_reference(const std::vector<core::Instance>& instances) {
  pram::Executor serial(1);
  pram::Workspace ws(serial);
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    refs.push_back({i, Mode::kSolve, core::find_popular_matching(inst, ws), std::nullopt});
    refs.push_back({i, Mode::kMaxCard, core::find_max_card_popular(inst, ws), std::nullopt});
    refs.push_back({i, Mode::kFair, core::find_fair_popular(inst, ws), std::nullopt});
    refs.push_back({i, Mode::kRankMaximal, core::find_rank_maximal_popular(inst, ws), std::nullopt});
    refs.push_back({i, Mode::kCount, std::nullopt, core::count_popular_matchings(inst, ws)});
  }
  return refs;
}

std::vector<Request> make_batch(const std::vector<core::Instance>& instances,
                                const std::vector<Reference>& refs) {
  std::vector<Request> batch;
  for (const auto& ref : refs) batch.push_back(Request::popular(ref.mode, instances[ref.instance]));
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
    EXPECT_EQ(res.count, ref.count) << "workers " << workers << " lanes " << lanes << " request "
                                    << i << ": count differs from the sequential baseline";
    if (ref.matching.has_value()) {
      EXPECT_TRUE(*res.matching == *ref.matching)
          << "workers " << workers << " lanes " << lanes << " request " << i
          << ": matching differs from the sequential baseline";
    } else if (!ref.count.has_value()) {
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

struct StableCase {
  stable::StableInstance inst;
  stable::MarriageMatching m;
};

/// Random and cyclic instances at n = 512, each at the man-optimal matching
/// and at its first successor.
std::vector<StableCase> stable_cases() {
  pram::Executor serial(1);
  pram::Workspace ws(serial);
  std::vector<StableCase> cases;
  for (auto inst : {gen::random_stable_instance(512, 31), gen::cyclic_stable_instance(512)}) {
    const auto m0 = stable::man_optimal(inst);
    const auto next = stable::next_stable_matchings(inst, m0, ws);
    cases.push_back({inst, m0});
    cases.push_back({std::move(inst), next.successors.front()});
  }
  return cases;
}

void expect_same_next_stable(const stable::NextStableResult& got,
                             const stable::NextStableResult& want, int workers, int lanes,
                             std::size_t c) {
  ASSERT_EQ(got.rotations.size(), want.rotations.size())
      << "workers " << workers << " lanes " << lanes << " case " << c;
  for (std::size_t i = 0; i < want.rotations.size(); ++i) {
    EXPECT_EQ(got.rotations[i].pairs, want.rotations[i].pairs)
        << "workers " << workers << " lanes " << lanes << " case " << c << " rotation " << i;
    EXPECT_EQ(got.successors[i].wife_of, want.successors[i].wife_of)
        << "workers " << workers << " lanes " << lanes << " case " << c << " successor " << i;
  }
}

TEST(NestedComposition, NextStableByteIdenticalAcrossWorkerLaneGrid) {
  const auto cases = stable_cases();
  std::vector<stable::NextStableResult> refs;
  pram::Executor serial(1);
  pram::Workspace serial_ws(serial);
  for (const auto& c : cases) refs.push_back(stable::next_stable_matchings(c.inst, c.m, serial_ws));

  for (const int workers : {1, 2, 4}) {
    for (const int lanes : {1, 2, 4}) {
      // Each worker thread builds its own executor, as engine workers do,
      // and runs every case; results are checked after the join.
      std::vector<std::vector<stable::NextStableResult>> got(static_cast<std::size_t>(workers));
      std::vector<std::thread> threads;
      for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          pram::Executor ex(lanes);
          pram::Workspace ws(ex);
          for (const auto& c : cases) {
            got[static_cast<std::size_t>(w)].push_back(
                stable::next_stable_matchings(c.inst, c.m, ws));
          }
        });
      }
      for (auto& t : threads) t.join();
      for (const auto& results : got) {
        ASSERT_EQ(results.size(), refs.size());
        for (std::size_t c = 0; c < refs.size(); ++c) {
          expect_same_next_stable(results[c], refs[c], workers, lanes, c);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ncpm::engine
