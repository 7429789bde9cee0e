// obs::Registry unit tests: instrument arithmetic, striping under threads,
// log2 bucket math and quantile interpolation, idempotent registration with
// stable handles, callback gauges, and snapshot ordering.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace ncpm::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, StripedAddsSumAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramBuckets, BucketIndexIsBitWidth) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(HistogramBuckets, BoundIsInclusiveUpperEdge) {
  EXPECT_EQ(histogram_bucket_bound(0), 0u);
  EXPECT_EQ(histogram_bucket_bound(1), 1u);
  EXPECT_EQ(histogram_bucket_bound(2), 3u);
  EXPECT_EQ(histogram_bucket_bound(3), 7u);
  EXPECT_EQ(histogram_bucket_bound(64), std::numeric_limits<std::uint64_t>::max());
  // Every value lands in the bucket whose bound covers it.
  for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull, 1ull << 40}) {
    const unsigned b = histogram_bucket(v);
    EXPECT_LE(v, histogram_bucket_bound(b));
    if (b > 0) {
      EXPECT_GT(v, histogram_bucket_bound(b - 1));
    }
  }
}

TEST(Histogram, ObserveCountsSumsAndBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(5);
  h.observe(5);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  const auto buckets = h.buckets();
  EXPECT_EQ(buckets[histogram_bucket(0)], 1u);
  EXPECT_EQ(buckets[histogram_bucket(5)], 2u);
  EXPECT_EQ(buckets[histogram_bucket(1000)], 1u);
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<std::uint64_t>(t) * 100 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(HistogramSample, QuantileOfEmptyIsZero) {
  HistogramSample s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(HistogramSample, QuantileInterpolatesInsideTheBucket) {
  // Four observations, all in bucket 3 (values 4..7). The p50 rank is 2 of
  // 4, so the estimate sits halfway through [4, 7].
  HistogramSample s;
  s.count = 4;
  s.buckets[3] = 4;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.0 + (7.0 - 4.0) * 0.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.0);
  // Out-of-range q values clamp rather than misbehave.
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), s.quantile(0.0));
  EXPECT_DOUBLE_EQ(s.quantile(2.0), s.quantile(1.0));
}

TEST(HistogramSample, QuantileSpansBuckets) {
  // 9 zeros and 1 large value: p50 is in bucket 0, p99 in the top bucket.
  HistogramSample s;
  s.count = 10;
  s.buckets[0] = 9;
  s.buckets[10] = 1;  // values 512..1023
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
}

TEST(Registry, RegistrationIsIdempotentPerNameAndLabels) {
  Registry reg;
  Counter& a = reg.counter("x_total", "help");
  Counter& b = reg.counter("x_total", "ignored on re-registration");
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("x_total", "help", {{"mode", "solve"}});
  EXPECT_NE(&a, &c);
  Counter& d = reg.counter("x_total", "help", {{"mode", "solve"}});
  EXPECT_EQ(&c, &d);
}

TEST(Registry, HandlesStayValidAsTheRegistryGrows) {
  Registry reg;
  Counter& first = reg.counter("first_total", "");
  const auto named = [](char prefix, int i) {
    std::string name(1, prefix);
    name += std::to_string(i);
    return name;
  };
  for (int i = 0; i < 200; ++i) {
    reg.counter(named('c', i), "");
    reg.gauge(named('g', i), "");
    reg.histogram(named('h', i), "");
  }
  first.add(3);  // the deque never moves entries, so this handle is live
  EXPECT_EQ(first.value(), 3u);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  Registry reg;
  reg.counter("z_total", "").add(1);
  reg.counter("a_total", "").add(2);
  reg.counter("a_total", "", {{"k", "v"}}).add(3);
  reg.gauge("g", "").set(4);
  reg.histogram("h_ns", "").observe(5);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a_total");
  EXPECT_TRUE(snap.counters[0].labels.empty());
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "a_total");
  ASSERT_EQ(snap.counters[1].labels.size(), 1u);
  EXPECT_EQ(snap.counters[1].value, 3u);
  EXPECT_EQ(snap.counters[2].name, "z_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 5u);
}

TEST(Registry, CallbackGaugesEvaluateAtSnapshotAndRemoveCleanly) {
  Registry reg;
  int owner_tag = 0;
  std::int64_t live = 7;
  reg.gauge_callback(&owner_tag, "cb_gauge", "", {}, [&live] { return live; });

  auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7);

  live = 9;  // callbacks read the current value, not a cached one
  snap = reg.snapshot();
  EXPECT_EQ(snap.gauges[0].value, 9);

  reg.remove_callbacks(&owner_tag);
  snap = reg.snapshot();
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(Registry, UptimeAdvancesMonotonically) {
  Registry reg;
  const std::uint64_t a = reg.uptime_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t b = reg.uptime_ns();
  EXPECT_GT(b, a);
  EXPECT_EQ(reg.snapshot().uptime_ns >= b, true);
}

TEST(RenderJson, EmitsOneObjectWithQuantiles) {
  Registry reg;
  reg.counter("c_total", "").add(1);
  auto& h = reg.histogram("h_ns", "");
  for (int i = 0; i < 100; ++i) h.observe(6);
  const std::string json = render_json(reg.snapshot());
  EXPECT_NE(json.find("\"uptime_ns\":"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"c_total\",\"labels\":{},\"value\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace ncpm::obs
