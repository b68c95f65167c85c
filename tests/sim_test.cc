#include <gtest/gtest.h>

#include "sim/histogram.h"
#include "sim/metrics.h"
#include "sim/network_model.h"
#include "sim/virtual_clock.h"

namespace tell::sim {
namespace {

TEST(VirtualClockTest, AdvanceAccumulates) {
  VirtualClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.Advance(100);
  clock.Advance(50);
  EXPECT_EQ(clock.now_ns(), 150u);
}

TEST(VirtualClockTest, AdvanceToNeverMovesBackwards) {
  VirtualClock clock;
  clock.Advance(1000);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.now_ns(), 1000u);
  clock.AdvanceTo(2000);
  EXPECT_EQ(clock.now_ns(), 2000u);
}

TEST(VirtualClockTest, ResetZeroes) {
  VirtualClock clock;
  clock.Advance(42);
  clock.Reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

TEST(NetworkModelTest, RequestCostLatencyFloor) {
  NetworkModel ib = NetworkModel::InfiniBand();
  // An empty request still pays the round trip.
  EXPECT_EQ(ib.RequestCost(0, 0), ib.base_rtt_ns);
}

TEST(NetworkModelTest, RequestCostScalesWithBytes) {
  NetworkModel ib = NetworkModel::InfiniBand();
  uint64_t small = ib.RequestCost(100, 100);
  uint64_t large = ib.RequestCost(100, 1'000'000);
  // 1 MB at 0.2 ns/byte = 200 us on top of the 5 us floor.
  EXPECT_GT(large, small + 150'000);
}

TEST(NetworkModelTest, EthernetSlowerThanInfiniBand) {
  NetworkModel ib = NetworkModel::InfiniBand();
  NetworkModel eth = NetworkModel::TenGbEthernet();
  // Small requests: latency dominated; paper needs >6x.
  EXPECT_GT(eth.RequestCost(64, 512), 6 * ib.RequestCost(64, 512));
}

TEST(NetworkModelTest, InstantIsFree) {
  NetworkModel instant = NetworkModel::Instant();
  EXPECT_EQ(instant.RequestCost(1000, 1000), 0u);
}

TEST(WorkerMetricsTest, MergeSumsEverything) {
  WorkerMetrics a, b;
  a.committed = 3;
  a.aborted = 1;
  a.storage_requests = 10;
  a.bytes_sent = 100;
  a.buffer_hits = 2;
  b.committed = 7;
  b.aborted = 2;
  b.storage_requests = 5;
  b.bytes_sent = 50;
  b.buffer_misses = 4;
  a.Merge(b);
  EXPECT_EQ(a.committed, 10u);
  EXPECT_EQ(a.aborted, 3u);
  EXPECT_EQ(a.storage_requests, 15u);
  EXPECT_EQ(a.bytes_sent, 150u);
  EXPECT_EQ(a.buffer_hits, 2u);
  EXPECT_EQ(a.buffer_misses, 4u);
}

TEST(WorkerMetricsTest, AbortRate) {
  WorkerMetrics m;
  EXPECT_EQ(m.AbortRate(), 0.0);
  m.committed = 9;
  m.aborted = 1;
  EXPECT_DOUBLE_EQ(m.AbortRate(), 0.1);
}

TEST(WorkerMetricsTest, BufferHitRate) {
  WorkerMetrics m;
  EXPECT_EQ(m.BufferHitRate(), 0.0);
  m.buffer_hits = 3;
  m.buffer_misses = 1;
  EXPECT_DOUBLE_EQ(m.BufferHitRate(), 0.75);
}

TEST(HistogramTest, EmptyHistogramSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.StdDev(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Mean(), 1000.0);
  EXPECT_EQ(h.StdDev(), 0.0);
  // Percentiles land in the value's bucket (within log-bucket error).
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 1000.0, 200.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentilesMonotone) {
  Histogram h;
  for (uint64_t i = 1; i <= 10'000; ++i) h.Record(i);
  uint64_t previous = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    uint64_t value = h.Percentile(p);
    EXPECT_GE(value, previous) << "p" << p;
    previous = value;
  }
}

TEST(HistogramTest, PercentilesStayWithinMinMax) {
  // Five values inside one bucket; the bucket's midpoint (5331) lies above
  // all of them.
  Histogram h;
  for (uint64_t v = 5021; v <= 5025; ++v) h.Record(v);
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), h.min()) << "p" << p;
    EXPECT_LE(h.Percentile(p), h.max()) << "p" << p;
  }
}

TEST(HistogramTest, PercentilesInterpolateWithinBucket) {
  // Uniform samples: interpolating inside a bucket is near exact, where the
  // bucket midpoint was off by up to ~10%.
  Histogram h;
  for (uint64_t v = 1; v <= 10'000; ++v) h.Record(v);
  for (double p : {25.0, 50.0, 90.0, 99.0}) {
    double exact = p / 100.0 * 10'000.0;
    EXPECT_NEAR(static_cast<double>(h.Percentile(p)), exact, exact * 0.01)
        << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100), 10'000u);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Record(UINT64_MAX / 2);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Percentile(50), 0u);
}

}  // namespace
}  // namespace tell::sim
