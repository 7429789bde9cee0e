// obs::Profiler unit tests: exclusive-time attribution under nesting, the
// detached no-op path (the solver's hot loops run with zero profiling cost
// when no accumulator is attached), and the accumulator API.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "obs/profiler.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace ncpm::obs {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(PhaseNames, EveryPhaseHasAStableName) {
  EXPECT_STREQ(phase_name(Phase::kDecode), "decode");
  EXPECT_STREQ(phase_name(Phase::kReducedGraph), "reduced_graph");
  EXPECT_STREQ(phase_name(Phase::kTwoRegular), "two_regular");
  EXPECT_STREQ(phase_name(Phase::kEulerSplit), "euler_split");
  EXPECT_STREQ(phase_name(Phase::kListRank), "list_rank");
  EXPECT_STREQ(phase_name(Phase::kWindowMin), "window_min");
  EXPECT_STREQ(phase_name(Phase::kCompaction), "compaction");
  EXPECT_STREQ(phase_name(Phase::kGf2Rank), "gf2_rank");
  EXPECT_STREQ(phase_name(Phase::kExtract), "extract");
  EXPECT_STREQ(phase_name(Phase::kVerify), "verify");
  EXPECT_STREQ(phase_name(kNumPhases), "unknown");
  EXPECT_STREQ(phase_name(kNumPhases + 100), "unknown");
}

TEST(PhaseAccum, AddValueResetSnapshot) {
  PhaseAccum accum;
  for (std::size_t p = 0; p < kNumPhases; ++p) EXPECT_EQ(accum.value(static_cast<Phase>(p)), 0u);

  accum.add(Phase::kGf2Rank, 100);
  accum.add(Phase::kGf2Rank, 23);
  accum.add(Phase::kDecode, 7);
  EXPECT_EQ(accum.value(Phase::kGf2Rank), 123u);
  EXPECT_EQ(accum.value(Phase::kDecode), 7u);

  const auto snap = accum.snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(Phase::kGf2Rank)], 123u);
  EXPECT_EQ(snap[static_cast<std::size_t>(Phase::kDecode)], 7u);
  EXPECT_EQ(snap[static_cast<std::size_t>(Phase::kListRank)], 0u);

  accum.reset();
  for (std::size_t p = 0; p < kNumPhases; ++p) EXPECT_EQ(accum.value(static_cast<Phase>(p)), 0u);
}

TEST(PhaseScope, DetachedScopeIsInactiveAndFree) {
  // A scope over a null accumulator must be a complete no-op: inactive, no
  // recording anywhere. This is the path every solver call takes when the
  // caller never attached a profiler.
  PhaseScope scope(nullptr, Phase::kListRank);
  EXPECT_FALSE(scope.active());
}

TEST(PhaseScope, RecordsElapsedIntoItsPhase) {
  PhaseAccum accum;
  const std::uint64_t before = now_ns();
  {
    PhaseScope scope(&accum, Phase::kEulerSplit);
    EXPECT_TRUE(scope.active());
    spin_for(std::chrono::microseconds(200));
  }
  const std::uint64_t wall = now_ns() - before;
  EXPECT_GT(accum.value(Phase::kEulerSplit), 0u);
  EXPECT_LE(accum.value(Phase::kEulerSplit), wall);
}

TEST(PhaseScope, NestedScopesAttributeExclusiveTime) {
  // Parent time excludes child time: with a child spinning ~1ms inside a
  // parent that itself spins ~200us, the child's bucket dominates and the
  // sum of all buckets never exceeds the wall window (the reconciliation
  // invariant the server-side acceptance test relies on).
  PhaseAccum accum;
  const std::uint64_t before = now_ns();
  {
    PhaseScope parent(&accum, Phase::kReducedGraph);
    spin_for(std::chrono::microseconds(200));
    {
      PhaseScope child(&accum, Phase::kListRank);
      spin_for(std::chrono::milliseconds(1));
    }
  }
  const std::uint64_t wall = now_ns() - before;

  const std::uint64_t parent_ns = accum.value(Phase::kReducedGraph);
  const std::uint64_t child_ns = accum.value(Phase::kListRank);
  EXPECT_GT(parent_ns, 0u);
  EXPECT_GT(child_ns, parent_ns);  // the child spun 5x longer
  std::uint64_t total = 0;
  for (const auto ns : accum.snapshot()) total += ns;
  EXPECT_LE(total, wall);
}

TEST(PhaseScope, ReentrantSamePhaseNests) {
  // list_rank calls window_min which can re-enter list-rank-flavoured
  // helpers; same-phase nesting must not double-count.
  PhaseAccum accum;
  const std::uint64_t before = now_ns();
  {
    PhaseScope outer(&accum, Phase::kWindowMin);
    PhaseScope inner(&accum, Phase::kWindowMin);
    spin_for(std::chrono::microseconds(300));
  }
  const std::uint64_t wall = now_ns() - before;
  EXPECT_LE(accum.value(Phase::kWindowMin), wall);
}

TEST(Workspace, NoProfilerAttachedMeansNullAndNoopScopes) {
  // A workspace starts detached; every PhaseScope the solver opens against
  // it is inactive and the accumulator (there is none) is never touched.
  // This pins the no-op path the profiler-off benchmark series measures.
  pram::Executor ex(1);
  pram::Workspace ws(ex);
  EXPECT_EQ(ws.profiler(), nullptr);
  {
    PhaseScope scope(ws.profiler(), Phase::kGf2Rank);
    EXPECT_FALSE(scope.active());
  }

  // Attach, record, detach: the accumulator only moves while attached.
  PhaseAccum accum;
  ws.attach_profiler(&accum);
  EXPECT_EQ(ws.profiler(), &accum);
  { PhaseScope scope(ws.profiler(), Phase::kGf2Rank); }
  const std::uint64_t attached = accum.value(Phase::kGf2Rank);
  ws.attach_profiler(nullptr);
  { PhaseScope scope(ws.profiler(), Phase::kGf2Rank); }
  EXPECT_EQ(accum.value(Phase::kGf2Rank), attached);
}

}  // namespace
}  // namespace ncpm::obs
