// Parallel prefix sums: correctness against serial scans,
// degenerate sizes, and executor-width independence.

#include "pram/scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
  Executor serial(1);
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

TEST(Scan, WrapsModTwoToTheWidth) {
  // Full-range values overflow every prefix; the scan must wrap mod 2^w
  // (as unsigned arithmetic does) at every executor width, and in-place
  // (in == out) must give the same result.
  std::mt19937_64 rng(13);
  std::vector<std::int32_t> in32(1001);
  std::vector<std::int64_t> in64(1001);
  for (auto& v : in32) v = static_cast<std::int32_t>(rng());
  for (auto& v : in64) v = static_cast<std::int64_t>(rng());
  std::vector<std::int32_t> want32(in32.size());
  std::vector<std::int64_t> want64(in64.size());
  std::uint32_t acc32 = 0;
  std::uint64_t acc64 = 0;
  for (std::size_t i = 0; i < in32.size(); ++i) {
    want32[i] = static_cast<std::int32_t>(acc32);
    want64[i] = static_cast<std::int64_t>(acc64);
    acc32 += static_cast<std::uint32_t>(in32[i]);
    acc64 += static_cast<std::uint64_t>(in64[i]);
  }
  for (const int lanes : {1, 3, 4}) {
    Executor ex(lanes);
    Workspace ws(ex);
    std::vector<std::int32_t> out32(in32.size());
    EXPECT_EQ(exclusive_scan<std::int32_t>(in32, out32, ws), static_cast<std::int32_t>(acc32));
    EXPECT_EQ(out32, want32) << "lanes=" << lanes;
    std::vector<std::int64_t> inout = in64;
    EXPECT_EQ(exclusive_scan<std::int64_t>(inout, inout, ws), static_cast<std::int64_t>(acc64));
    EXPECT_EQ(inout, want64) << "lanes=" << lanes;
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
