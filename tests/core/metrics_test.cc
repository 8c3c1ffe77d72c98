#include "metrics/metrics.h"

#include <gtest/gtest.h>

namespace unicc {
namespace {

TxnResult MakeResult(TxnId id, Protocol p, Duration system_time,
                     std::uint32_t attempts = 1,
                     std::uint32_t backoffs = 0) {
  TxnResult r;
  r.id = id;
  r.protocol = p;
  r.arrival = 1000;
  r.commit = 1000 + system_time;
  r.attempts = attempts;
  r.backoffs = backoffs;
  r.num_requests = 3;
  return r;
}

TEST(DurationStatTest, MeanAndMax) {
  DurationStat s;
  s.Add(1000);
  s.Add(3000);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.MeanMs(), 2.0);
  EXPECT_DOUBLE_EQ(s.MaxMs(), 3.0);
}

TEST(DurationStatTest, Percentiles) {
  DurationStat s;
  for (Duration d = 1000; d <= 100000; d += 1000) s.Add(d);
  EXPECT_NEAR(s.PercentileMs(50), 50.5, 1.0);
  EXPECT_NEAR(s.PercentileMs(95), 95.0, 1.5);
  EXPECT_NEAR(s.PercentileMs(0), 1.0, 0.01);
  EXPECT_NEAR(s.PercentileMs(100), 100.0, 0.01);
}

TEST(DurationStatTest, EmptyIsZero) {
  DurationStat s;
  EXPECT_EQ(s.MeanMs(), 0);
  EXPECT_EQ(s.PercentileMs(50), 0);
}

TEST(DurationStatTest, ReservoirBoundsRetainedSamples) {
  DurationStat s;
  const std::size_t n = DurationStat::kMaxSamples * 4;
  // Uniform ramp 1..n ms; count/mean/max stay exact past the cap, and the
  // reservoir's percentile estimate stays close to the true quantile.
  for (std::size_t i = 1; i <= n; ++i) s.Add(i * 1000);
  EXPECT_EQ(s.count(), n);
  EXPECT_DOUBLE_EQ(s.MaxMs(), static_cast<double>(n));
  EXPECT_DOUBLE_EQ(s.MeanMs(), (n + 1) / 2.0);
  EXPECT_NEAR(s.PercentileMs(50), n / 2.0, 0.05 * n);
  EXPECT_NEAR(s.PercentileMs(95), 0.95 * n, 0.05 * n);
}

TEST(DurationStatTest, ReservoirIsDeterministic) {
  DurationStat a, b;
  for (std::size_t i = 0; i < DurationStat::kMaxSamples * 3; ++i) {
    a.Add((i * 7919) % 100000);
    b.Add((i * 7919) % 100000);
  }
  EXPECT_DOUBLE_EQ(a.PercentileMs(99), b.PercentileMs(99));
  EXPECT_DOUBLE_EQ(a.PercentileMs(50), b.PercentileMs(50));
}

TEST(DurationStatTest, ExactBelowTheCap) {
  // Below kMaxSamples the reservoir never kicks in: percentiles are the
  // exact order statistics, as before.
  DurationStat s;
  for (Duration d = 1000; d <= 4000; d += 1000) s.Add(d);
  EXPECT_DOUBLE_EQ(s.PercentileMs(0), 1.0);
  EXPECT_DOUBLE_EQ(s.PercentileMs(100), 4.0);
}

TEST(RunMetricsTest, PerProtocolAggregation) {
  RunMetrics m;
  m.OnCommit(MakeResult(1, Protocol::kTwoPhaseLocking, 10000));
  m.OnCommit(MakeResult(2, Protocol::kTwoPhaseLocking, 20000, 3));
  m.OnCommit(MakeResult(3, Protocol::kPrecedenceAgreement, 5000, 1, 2));
  EXPECT_EQ(m.total_committed(), 3u);
  const auto& p2 = m.ForProtocol(Protocol::kTwoPhaseLocking);
  EXPECT_EQ(p2.committed, 2u);
  EXPECT_EQ(p2.restarts, 2u);  // 3 attempts -> 2 restarts
  EXPECT_DOUBLE_EQ(p2.system_time.MeanMs(), 15.0);
  const auto& pa = m.ForProtocol(Protocol::kPrecedenceAgreement);
  EXPECT_EQ(pa.backoff_rounds, 2u);
  EXPECT_EQ(m.ForProtocol(Protocol::kTimestampOrdering).committed, 0u);
}

TEST(RunMetricsTest, RestartCounters) {
  RunMetrics m;
  m.OnRestart(Protocol::kTimestampOrdering,
              TxnOutcome::kRestartedByReject);
  m.OnRestart(Protocol::kTwoPhaseLocking,
              TxnOutcome::kRestartedByDeadlock);
  m.OnRestart(Protocol::kTwoPhaseLocking,
              TxnOutcome::kRestartedByDeadlock);
  EXPECT_EQ(m.reject_restarts(), 1u);
  EXPECT_EQ(m.deadlock_restarts(), 2u);
}

TEST(RunMetricsTest, Throughput) {
  RunMetrics m;
  for (TxnId i = 1; i <= 10; ++i) {
    m.OnCommit(MakeResult(i, Protocol::kTwoPhaseLocking, 1000));
  }
  EXPECT_DOUBLE_EQ(m.ThroughputPerSec(2 * kSecond), 5.0);
  EXPECT_EQ(m.ThroughputPerSec(0), 0.0);
}

}  // namespace
}  // namespace unicc
