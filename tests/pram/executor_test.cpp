// The Executor substrate: correctness of the primitives across widths,
// grain schedules, nesting, concurrent dispatch, in-place resizing, and
// the documented parallel_reduce contract (associative + commutative
// combine — enforced by a debug assertion).

#include "pram/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ncpm::pram {
namespace {

TEST(Executor, ParallelForCoversEveryIndexOnce) {
  for (const int lanes : {1, 2, 3, 8}) {
    Executor ex(lanes);
    const std::size_t n = 10'007;  // prime: exercises ragged block edges
    std::vector<std::int32_t> hits(n, 0);
    ex.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), static_cast<std::int32_t>(n))
        << "lanes=" << lanes;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "i=" << i;
  }
}

TEST(Executor, GrainScheduleCoversEveryIndexOnce) {
  Executor ex(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{2048}}) {
    const std::size_t n = 5'000;
    std::vector<std::int32_t> hits(n, 0);
    ex.parallel_for_grain(n, grain, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "grain=" << grain;
  }
}

TEST(Executor, EmptyAndTinyRoundsRunInline) {
  Executor ex(8);
  bool ran = false;
  ex.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  std::vector<std::size_t> seen;
  ex.parallel_for(1, [&](std::size_t i) { seen.push_back(i); });  // n==1: inline, no race
  EXPECT_EQ(seen, (std::vector<std::size_t>{0}));
}

TEST(Executor, ReduceMatchesSerialAcrossWidths) {
  const std::size_t n = 40'001;
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected += static_cast<std::int64_t>(i * i % 1000);
  for (const int lanes : {1, 2, 5, 8}) {
    Executor ex(lanes);
    const auto got = ex.parallel_reduce(
        n, std::int64_t{0},
        [](std::size_t i) { return static_cast<std::int64_t>(i * i % 1000); },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(got, expected) << "lanes=" << lanes;
  }
}

TEST(Executor, AnyAndCountAcrossWidths) {
  for (const int lanes : {1, 3, 8}) {
    Executor ex(lanes);
    EXPECT_TRUE(ex.parallel_any(100'000, [](std::size_t i) { return i == 99'999; }));
    EXPECT_FALSE(ex.parallel_any(100'000, [](std::size_t) { return false; }));
    EXPECT_EQ(ex.parallel_count(90'000, [](std::size_t i) { return i % 3 == 0; }), 30'000u);
  }
}

TEST(Executor, NestedCallOnSameExecutorRunsInline) {
  Executor ex(4);
  std::atomic<std::int64_t> total{0};
  // The inner parallel_for must not deadlock waiting for lanes the outer
  // round already occupies; it runs serially inside each body.
  ex.parallel_for(2'000, [&](std::size_t) {
    std::int64_t local = 0;
    ex.parallel_for(10, [&](std::size_t j) { local += static_cast<std::int64_t>(j); });
    total.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 2'000 * 45);
}

TEST(Executor, DistinctExecutorsNest) {
  Executor outer(2);
  Executor inner(2);
  std::atomic<std::int64_t> total{0};
  outer.parallel_for(1'000, [&](std::size_t) {
    total.fetch_add(
        inner.parallel_reduce(
            1'000, std::int64_t{0}, [](std::size_t j) { return static_cast<std::int64_t>(j); },
            [](std::int64_t a, std::int64_t b) { return a + b; }),
        std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), std::int64_t{1'000} * (999 * 1'000 / 2));
}

TEST(Executor, ConcurrentDispatchFromManyThreadsIsSerialized) {
  Executor ex(4);
  constexpr int kThreads = 6;
  constexpr std::size_t kN = 20'000;
  std::vector<std::int64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ex, &sums, t] {
      for (int round = 0; round < 5; ++round) {
        sums[static_cast<std::size_t>(t)] += ex.parallel_reduce(
            kN, std::int64_t{0}, [](std::size_t i) { return static_cast<std::int64_t>(i); },
            [](std::int64_t a, std::int64_t b) { return a + b; });
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto expected = std::int64_t{5} * (static_cast<std::int64_t>(kN - 1) * kN / 2);
  for (const auto s : sums) EXPECT_EQ(s, expected);
}

TEST(Executor, DefaultLanesHonoursOnlyWholeIntegers) {
  // Runs under whatever NCPM_LANES the process was started with: CTest
  // registers a second run under NCPM_LANES=17x, which must fall back to
  // the hardware width with a warning instead of meaning 17.
  const char* env = std::getenv("NCPM_LANES");
  const std::string_view value = env == nullptr ? "" : env;
  const bool valid = !value.empty() && value.size() <= 6 &&
                     value.find_first_not_of("0123456789") == std::string_view::npos &&
                     std::stoi(std::string(value)) >= 1;
  const unsigned hw = std::thread::hardware_concurrency();
  const int want = valid ? std::stoi(std::string(value)) : (hw == 0 ? 1 : static_cast<int>(hw));
  testing::internal::CaptureStderr();
  EXPECT_EQ(default_lanes(), want) << "NCPM_LANES=" << value;
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_EQ(warning.find("NCPM_LANES") != std::string::npos, env != nullptr && !valid) << warning;
}

TEST(Executor, SerialExecutorSpawnsNoLanes) {
  SerialExecutor serial;
  EXPECT_EQ(serial.lanes(), 1);
  const auto tid = std::this_thread::get_id();
  bool all_inline = true;
  serial.parallel_for(10'000, [&](std::size_t) {
    if (std::this_thread::get_id() != tid) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

// The documented parallel_reduce contract: a non-commutative combine trips
// the debug assertion (and is silently width-dependent in release builds,
// which is exactly why the assertion exists).
TEST(ExecutorDeathTest, NonCommutativeCombineAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Executor ex(2);
  EXPECT_DEBUG_DEATH(
      {
        auto r = ex.parallel_reduce(
            1'000, std::int64_t{0}, [](std::size_t i) { return static_cast<std::int64_t>(i); },
            [](std::int64_t a, std::int64_t b) { return a - b; });  // not commutative
        (void)r;
      },
      "commutative");
}

TEST(ExecutorDeathTest, NonAssociativeCombineAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Executor ex(2);
  EXPECT_DEBUG_DEATH(
      {
        auto r = ex.parallel_reduce(
            1'000, std::int64_t{0}, [](std::size_t i) { return static_cast<std::int64_t>(i + 1); },
            // Absolute difference: commutative, 0 is neutral on positives,
            // but ||1-2|-3| != |1-|2-3||.
            [](std::int64_t a, std::int64_t b) { return a > b ? a - b : b - a; });
        (void)r;
      },
      "associative");
}

}  // namespace
}  // namespace ncpm::pram
