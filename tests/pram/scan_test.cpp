// Parallel prefix sums: correctness against serial scans,
// degenerate sizes, and executor-width independence.

#include "pram/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "pram/counters.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace ncpm::pram {
namespace {

TEST(Scan, ExclusiveMatchesSerialDefinition) {
  const std::vector<std::int64_t> in{3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<std::int64_t> out(in.size());
  Workspace ws;
  const auto total = exclusive_scan<std::int64_t>(in, out, ws);
  EXPECT_EQ(total, 31);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], acc) << "index " << i;
    acc += in[i];
  }
}

TEST(Scan, EmptyAndSingleton) {
  Workspace ws;
  std::vector<std::int64_t> empty;
  std::vector<std::int64_t> out;
  EXPECT_EQ(exclusive_scan<std::int64_t>(empty, out, ws), 0);

  const std::vector<std::int64_t> one{42};
  std::vector<std::int64_t> out1(1);
  EXPECT_EQ(exclusive_scan<std::int64_t>(one, out1, ws), 42);
  EXPECT_EQ(out1[0], 0);
}

TEST(Scan, LargeRandomAgreesWithStdPartialSum) {
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> in(100003);
  for (auto& v : in) v = static_cast<std::int64_t>(rng() % 100);
  std::vector<std::int64_t> expected(in.size());
  std::exclusive_scan(in.begin(), in.end(), expected.begin(), std::int64_t{0});
  std::vector<std::int64_t> out(in.size());
  Workspace ws;
  exclusive_scan<std::int64_t>(in, out, ws);
  EXPECT_EQ(out, expected);
}

TEST(Scan, ResultIndependentOfExecutorWidth) {
  std::mt19937_64 rng(11);
  std::vector<std::int64_t> in(5000);
  for (auto& v : in) v = static_cast<std::int64_t>(rng() % 1000);
  std::vector<std::int64_t> ref(in.size());
  SerialExecutor serial;
  Workspace serial_ws(serial);
  exclusive_scan<std::int64_t>(in, ref, serial_ws);
  for (const int lanes : {2, 3, 8}) {
    Executor ex(lanes);
    Workspace ws(ex);
    std::vector<std::int64_t> out(in.size());
    exclusive_scan<std::int64_t>(in, out, ws);
    EXPECT_EQ(out, ref) << "lanes=" << lanes;
  }
}

TEST(Scan, CountersRecordRounds) {
  const std::vector<std::int64_t> in(1000, 1);
  std::vector<std::int64_t> out(in.size());
  Workspace ws;
  exclusive_scan<std::int64_t>(in, out, ws);
  const NcCounters& counters = ws.counters();
  EXPECT_GE(counters.rounds, 3u);  // map, block scan, fix-up
  EXPECT_GT(counters.work, 0u);
}

TEST(ParallelPrimitives, ReduceAnyCount) {
  Executor ex(4);
  EXPECT_EQ(ex.parallel_reduce(
                100, std::int64_t{0}, [](std::size_t i) { return static_cast<std::int64_t>(i); },
                [](std::int64_t a, std::int64_t b) { return a + b; }),
            4950);
  EXPECT_TRUE(ex.parallel_any(100, [](std::size_t i) { return i == 57; }));
  EXPECT_FALSE(ex.parallel_any(100, [](std::size_t) { return false; }));
  EXPECT_EQ(ex.parallel_count(100, [](std::size_t i) { return i % 3 == 0; }), 34u);
}

}  // namespace
}  // namespace ncpm::pram
