#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace sysgo::obs {
namespace {

/// Each test works on its own uniquely named metrics (the registry is
/// process-wide and other suites' TUs register eagerly), and quantile /
/// snapshot tests reset what they touch.

TEST(Counter, ConcurrentHammeringEqualsSerialTotal) {
  Counter& c = counter("test.obs.counter.hammer");
  c.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, DisabledAddIsANoOp) {
  Counter& c = counter("test.obs.counter.disabled");
  c.reset();
  set_enabled(false);
  c.add(42);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.add(42);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddAndHighWater) {
  Gauge& g = gauge("test.obs.gauge.basic");
  g.reset();
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(5);  // below current: no change
  EXPECT_EQ(g.value(), 7);
  g.record_max(11);
  EXPECT_EQ(g.value(), 11);
}

TEST(Histogram, ConcurrentHammeringEqualsSerialTotals) {
  Histogram& h = histogram("test.obs.histogram.hammer");
  h.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      // Thread t records the constant value t+1: totals and min/max are
      // exactly predictable regardless of interleaving.
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record_micros(static_cast<std::uint64_t>(t) + 1);
    });
  for (auto& t : threads) t.join();
  const Histogram::Agg agg = h.aggregate();
  EXPECT_EQ(agg.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t)
    expected_sum += (static_cast<std::uint64_t>(t) + 1) * kPerThread;
  EXPECT_EQ(agg.sum_us, expected_sum);
  EXPECT_EQ(agg.min_us, 1u);
  EXPECT_EQ(agg.max_us, 8u);
}

TEST(Histogram, QuantilesOfConstantSampleClampToObservedValue) {
  Histogram& h = histogram("test.obs.histogram.constant");
  h.reset();
  for (int i = 0; i < 100; ++i) h.record_micros(10);
  const Histogram::Agg agg = h.aggregate();
  // Interpolation inside bucket [8, 16) lands above 10, but the estimate
  // clamps to the observed [min, max] = [10, 10].
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.50), 10.0);
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.90), 10.0);
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.99), 10.0);
}

TEST(Histogram, QuantilesOfBimodalSample) {
  Histogram& h = histogram("test.obs.histogram.bimodal");
  h.reset();
  for (int i = 0; i < 50; ++i) h.record_micros(1);
  for (int i = 0; i < 50; ++i) h.record_micros(1000);
  const Histogram::Agg agg = h.aggregate();
  // p50: rank 50 is the last of bucket [1, 2) -> 1 + 1 * (50/50) = 2.
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.50), 2.0);
  // p90: rank 90 is 40th of 50 in bucket [512, 1024) ->
  // 512 + 512 * 40/50 = 921.6.
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.90), 921.6);
  // p99: rank 99 interpolates past the observed max and clamps to 1000.
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.99), 1000.0);
}

TEST(Histogram, OverflowSamplesClampIntoLastBucketAndMovePercentiles) {
  Histogram& h = histogram("test.obs.histogram.overflow");
  h.reset();
  // One tiny sample plus 99 beyond the top bucket's nominal range
  // [2^38, 2^39): bucket_of clamps them into the last bucket, and p99 must
  // land near the observed max, not under the nominal 2^39 edge.
  const std::uint64_t huge = std::uint64_t{1} << 50;
  h.record_micros(1);
  for (int i = 0; i < 99; ++i) h.record_micros(huge);
  const Histogram::Agg agg = h.aggregate();
  EXPECT_EQ(agg.count, 100u);
  EXPECT_EQ(agg.buckets[Histogram::kBuckets - 1], 99u);
  EXPECT_EQ(agg.max_us, huge);
  const double p99 = agg.quantile_us(0.99);
  // Regression: interpolating within the nominal top-bucket range capped
  // the estimate at 2^39 ~ 5.5e11, a ~2000x underestimate of the 2^50
  // samples that dominate this distribution.
  EXPECT_GT(p99, static_cast<double>(std::uint64_t{1} << 39));
  EXPECT_LE(p99, static_cast<double>(huge));
  // p50 sits inside the overflow mass too.
  EXPECT_GT(agg.quantile_us(0.50), static_cast<double>(std::uint64_t{1} << 38));
}

TEST(Histogram, EmptyAggregateIsAllZero) {
  Histogram& h = histogram("test.obs.histogram.empty");
  h.reset();
  const Histogram::Agg agg = h.aggregate();
  EXPECT_EQ(agg.count, 0u);
  EXPECT_EQ(agg.min_us, 0u);
  EXPECT_EQ(agg.max_us, 0u);
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.50), 0.0);
}

TEST(Histogram, ZeroMicrosecondsLandInBucketZero) {
  Histogram& h = histogram("test.obs.histogram.zero");
  h.reset();
  h.record_micros(0);
  const Histogram::Agg agg = h.aggregate();
  EXPECT_EQ(agg.buckets[0], 1u);
  EXPECT_DOUBLE_EQ(agg.quantile_us(0.99), 0.0);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Counter& a = counter("test.obs.registry.same");
  Counter& b = counter("test.obs.registry.same");
  EXPECT_EQ(&a, &b);
}

TEST(Snapshot, TwoRendersOfIdleRegistryAreByteIdentical) {
  // Writers quiescent: two snapshot+render round trips must agree byte for
  // byte, in both formats (the determinism contract of --metrics).
  const std::string json1 = to_json(snapshot());
  const std::string json2 = to_json(snapshot());
  EXPECT_EQ(json1, json2);
  const std::string csv1 = to_csv(snapshot());
  const std::string csv2 = to_csv(snapshot());
  EXPECT_EQ(csv1, csv2);
}

TEST(Snapshot, NamesAreSortedWithinEachKind) {
  (void)counter("test.obs.sort.b");
  (void)counter("test.obs.sort.a");
  const Snapshot snap = snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  for (std::size_t i = 1; i < snap.histograms.size(); ++i)
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
}

TEST(Snapshot, JsonCarriesRecordedValues) {
  Counter& c = counter("test.obs.json.value");
  c.reset();
  c.add(7);
  const std::string json = to_json(snapshot());
  EXPECT_NE(json.find("\"test.obs.json.value\": 7"), std::string::npos);
  c.reset();
}

}  // namespace
}  // namespace sysgo::obs
