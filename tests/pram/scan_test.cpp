// Parallel prefix sums and compaction: correctness against serial scans,
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

TEST(Scan, InclusiveMatchesSerialDefinition) {
  const std::vector<std::int64_t> in{2, 7, 1, 8, 2, 8};
  std::vector<std::int64_t> out(in.size());
  Workspace ws;
  const auto total = inclusive_scan<std::int64_t>(in, out, ws);
  EXPECT_EQ(total, 28);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc += in[i];
    EXPECT_EQ(out[i], acc);
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

TEST(Compact, IndicesSelectsFlaggedPositions) {
  const std::vector<std::uint8_t> keep{1, 0, 0, 1, 1, 0, 1};
  Workspace ws;
  const auto idx = compact_indices(keep, ws);
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{0, 3, 4, 6}));
}

TEST(Compact, ValuesPreserveOrder) {
  const std::vector<std::int32_t> values{10, 20, 30, 40, 50};
  const std::vector<std::uint8_t> keep{0, 1, 0, 1, 1};
  Workspace ws;
  const auto out = compact<std::int32_t>(values, keep, ws);
  EXPECT_EQ(out, (std::vector<std::int32_t>{20, 40, 50}));
}

TEST(Compact, AllAndNone) {
  Workspace ws;
  const std::vector<std::uint8_t> none(5, 0);
  EXPECT_TRUE(compact_indices(none, ws).empty());
  const std::vector<std::uint8_t> all(5, 1);
  EXPECT_EQ(compact_indices(all, ws).size(), 5u);
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
