#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "stl/estimators.h"
#include "stl/evaluator.h"

namespace unicc {
namespace {

SystemParams DefaultSys() {
  SystemParams s;
  s.lambda_a = 100;
  s.lambda_r = 0.4;
  s.lambda_w = 0.6;
  s.q_r = 0.5;
  s.k_avg = 4;
  return s;
}

TEST(StlEvaluatorTest, ZeroDurationZeroLoss) {
  StlEvaluator ev(DefaultSys());
  EXPECT_EQ(ev.Evaluate(5, 0), 0);
}

TEST(StlEvaluatorTest, SaturatedLossIsLambdaAU) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.Evaluate(100, 0.5), 100 * 0.5);
  EXPECT_DOUBLE_EQ(ev.Evaluate(150, 0.5), 100 * 0.5);
}

TEST(StlEvaluatorTest, BoundedByLambdaAU) {
  StlEvaluator ev(DefaultSys());
  for (double l : {0.5, 2.0, 10.0, 50.0}) {
    for (double u : {0.01, 0.1, 1.0}) {
      const double v = ev.Evaluate(l, u);
      EXPECT_LE(v, 100 * u * 1.0001) << "l=" << l << " u=" << u;
      EXPECT_GE(v, l * u * 0.9999) << "l=" << l << " u=" << u;
    }
  }
}

TEST(StlEvaluatorTest, MonotoneInInitialLoss) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double l : {1.0, 5.0, 20.0, 60.0, 90.0}) {
    const double v = ev.Evaluate(l, 0.2);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, MonotoneInDuration) {
  StlEvaluator ev(DefaultSys());
  double prev = 0;
  for (double u : {0.05, 0.1, 0.2, 0.5, 1.0}) {
    const double v = ev.Evaluate(10, u);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, NoEscalationWhenLambdaNewZero) {
  SystemParams s = DefaultSys();
  s.lambda_r = 0;
  s.lambda_w = 0;
  StlEvaluator ev(s);
  EXPECT_DOUBLE_EQ(ev.Evaluate(7, 0.3), 7 * 0.3);
}

TEST(StlEvaluatorTest, LambdaBlockEdgeCases) {
  StlEvaluator ev(DefaultSys());
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(0), 0);    // no loss, nothing blocks
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(100), 0);  // no free throughput left
  EXPECT_GT(ev.LambdaBlock(50), 0);
}

TEST(StlEvaluatorTest, LambdaNewFormula) {
  StlEvaluator ev(DefaultSys());
  // λ_w + (1 − Q_r)·λ_r = 0.6 + 0.5*0.4.
  EXPECT_DOUBLE_EQ(ev.LambdaNew(), 0.6 + 0.5 * 0.4);
}

TEST(StlEvaluatorTest, GridRefinementConverges) {
  StlEvaluator coarse(DefaultSys(), 24);
  StlEvaluator fine(DefaultSys(), 96);
  for (const auto& [lambda_loss, u_seconds] :
       {std::pair{10.0, 0.2}, std::pair{40.0, 0.5}}) {
    const double a = coarse.Evaluate(lambda_loss, u_seconds);
    const double b = fine.Evaluate(lambda_loss, u_seconds);
    EXPECT_NEAR(a, b, std::max(a, b) * 0.08)
        << "STL'(" << lambda_loss << ", " << u_seconds << ")";
  }
}

TEST(StlEvaluatorTest, SingleRequestTransactionsNeverEscalate) {
  // K = 1: a granted request's transaction has no other requests to block.
  SystemParams s = DefaultSys();
  s.k_avg = 1;
  StlEvaluator ev(s);
  EXPECT_NEAR(ev.Evaluate(10, 0.3), 10 * 0.3, 1e-9);
}

// The direct form of the DP: every level convolves the level above
// against the first-block density term by term, O(m^2) work and m `exp`
// calls per level. StlEvaluator::Evaluate sums the same quadrature with
// running sums; this copy is the oracle it is checked against.
double DirectEvaluate(const StlEvaluator& ev, int m, double lambda_loss,
                      double u_seconds) {
  if (u_seconds == 0) return 0;
  const double la = ev.params().lambda_a;
  if (lambda_loss >= la) return la * u_seconds;
  const double lnew = ev.LambdaNew();
  int levels = 0;
  if (lnew > 1e-12) {
    levels = static_cast<int>(std::ceil((la - lambda_loss) / lnew));
    levels = std::min(levels, 4096);
  }
  const double h = u_seconds / (m - 1);
  std::vector<double> above(m), cur(m);
  for (int i = 0; i < m; ++i) above[i] = la * (static_cast<double>(i) * h);
  for (int n = levels - 1; n >= 0; --n) {
    const double l = std::min(lambda_loss + n * lnew, la);
    const double b = ev.LambdaBlock(l);
    cur[0] = 0;
    const double ebh = std::exp(-b * h);
    const double c = b > 1e-12 ? (1 - ebh * (1 + b * h)) / (b * h) : 0.0;
    for (int i = 1; i < m; ++i) {
      const double u = static_cast<double>(i) * h;
      double v = std::exp(-b * u) * l * u;
      if (b > 1e-12) {
        double ej = 1.0;
        for (int j = 0; j < i; ++j) {
          const double x0 = static_cast<double>(j) * h;
          const double g0 = l * x0 + above[i - j];
          const double g1 = l * (x0 + h) + above[i - j - 1];
          v += g0 * (ej - ej * ebh) + (g1 - g0) * ej * c;
          ej *= ebh;
        }
      }
      cur[i] = v;
    }
    above = cur;
  }
  if (levels == 0) return lambda_loss * u_seconds;
  return above[m - 1];
}

// Checks Evaluate against the direct sum at one point.
void ExpectMatchesDirect(const SystemParams& s, int m, double lambda_loss,
                         double u_seconds) {
  const StlEvaluator ev(s, m);
  const double want = DirectEvaluate(ev, m, lambda_loss, u_seconds);
  const double got = ev.Evaluate(lambda_loss, u_seconds);
  EXPECT_NEAR(got, want, 1e-9 * std::abs(want))
      << "m=" << m << " l=" << lambda_loss << " U=" << u_seconds
      << " la=" << s.lambda_a << " lr=" << s.lambda_r << " lw=" << s.lambda_w
      << " qr=" << s.q_r << " K=" << s.k_avg;
}

TEST(StlEvaluatorDifferentialTest, MatchesDirectSumOnRandomGrid) {
  std::mt19937_64 rng(20260412);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 1500; ++iter) {
    SystemParams s;
    s.lambda_a = 5 + 295 * unit(rng);
    s.lambda_r = 4 * unit(rng);
    s.lambda_w = 4 * unit(rng);
    s.q_r = unit(rng);
    s.k_avg = 1 + 7 * unit(rng);
    const int m = 2 + static_cast<int>(rng() % 63);  // 2..64
    const double lambda_loss = 1.02 * s.lambda_a * unit(rng);
    const double u_seconds = 0.5 * unit(rng);
    ExpectMatchesDirect(s, m, lambda_loss, u_seconds);
  }
}

TEST(StlEvaluatorDifferentialTest, MatchesDirectSumOnEdgeBranches) {
  const SystemParams base = DefaultSys();
  for (int m : {2, 3, 48, 64}) {
    SCOPED_TRACE(m);
    // levels == 0: no escalation.
    SystemParams quiet = base;
    quiet.lambda_r = 0;
    quiet.lambda_w = 0;
    ExpectMatchesDirect(quiet, m, 7, 0.3);
    // lambda_block just above (and just below) the 1e-12 cutoff: the
    // initial loss sits a hair under lambda_A.
    const StlEvaluator ev(base, m);
    const double near_sat = base.lambda_a - 2e-12;
    EXPECT_GT(ev.LambdaBlock(near_sat), 1e-12);
    EXPECT_LT(ev.LambdaBlock(near_sat), 1e-11);
    ExpectMatchesDirect(base, m, near_sat, 0.2);
    EXPECT_LT(ev.LambdaBlock(base.lambda_a - 5e-13), 1e-12);
    ExpectMatchesDirect(base, m, base.lambda_a - 5e-13, 0.2);
    // The 4096-level clamp: lambda_A / lambda_new is far above 4096.
    SystemParams wide = base;
    wide.lambda_a = 1e4;
    wide.lambda_r = 0.1;
    wide.lambda_w = 0.1;
    ASSERT_GT(wide.lambda_a / StlEvaluator(wide, m).LambdaNew(), 4096);
    ExpectMatchesDirect(wide, m, 1.0, 0.05);
    // U == 0 and lambda_loss >= lambda_A.
    ExpectMatchesDirect(base, m, 5, 0);
    ExpectMatchesDirect(base, m, base.lambda_a, 0.4);
    ExpectMatchesDirect(base, m, 2 * base.lambda_a, 0.4);
  }
}

TEST(EstimatorFormulaTest, LambdaT) {
  const SystemParams s = DefaultSys();
  // m=2 reads, n=3 writes: 2·λw + 3·(λw + λr).
  EXPECT_DOUBLE_EQ(LambdaT(s, {2, 3}), 2 * 0.6 + 3 * (0.6 + 0.4));
}

TEST(EstimatorFormulaTest, Stl2plNoAbortsEqualsPlainStl) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.p_abort = 0;
  const TxnShape shape{2, 2};
  EXPECT_DOUBLE_EQ(Stl2pl(ev, shape, p),
                   ev.Evaluate(LambdaT(ev.params(), shape), 0.05));
}

TEST(EstimatorFormulaTest, Stl2plIncreasesWithAbortProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pa : {0.0, 0.1, 0.3, 0.6}) {
    p.p_abort = pa;
    const double v = Stl2pl(ev, shape, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlToIncreasesWithRejectProbability) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pr : {0.0, 0.1, 0.3, 0.5}) {
    p.p_reject_read = pr;
    p.p_reject_write = pr;
    const double v = StlTo(ev, shape, p);
    EXPECT_GT(v, prev * 0.999);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlPaAtMostOneBackoff) {
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  const TxnShape shape{2, 2};
  // Even with certain back-off, PA pays at most one extra STL' term.
  p.p_reject_read = 0.95;
  p.p_reject_write = 0.95;
  const double lt = LambdaT(ev.params(), shape);
  const double one = ev.Evaluate(lt, 0.05);
  const double v = StlPa(ev, shape, p);
  EXPECT_LE(v, 3.0 * one + 1e-9);
}

TEST(EstimatorFormulaTest, StlToVsPaWithSameProbabilities) {
  // With identical negative-response probabilities, T/O (geometric retry)
  // must cost at least as much as PA (single back-off).
  StlEvaluator ev(DefaultSys());
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  p.p_reject_read = 0.4;
  p.p_reject_write = 0.4;
  EXPECT_GE(StlTo(ev, {3, 3}, p), StlPa(ev, {3, 3}, p));
}

// Experiment E8b: as contention grows, the protocol with the lowest STL
// moves from 2PL to PA. Each row sets 2PL's deadlock probability, the
// T/O reject and PA back-off probability, and the lock hold time U.
// Deadlocked 2PL locks are held twice as long; PA's negotiation
// lengthens its holds by a fifth.
TEST(EstimatorFormulaTest, LowestStlMovesFromTwoPlToPaWithContention) {
  struct Row {
    const char* name;
    double p_abort;
    double p_negative;
    double u;
    Protocol lowest;
  };
  const Row rows[] = {
      {"idle", 0.0, 0.0, 0.03, Protocol::kTwoPhaseLocking},
      {"light", 0.01, 0.05, 0.04, Protocol::kTwoPhaseLocking},
      {"moderate", 0.05, 0.15, 0.06, Protocol::kTwoPhaseLocking},
      {"heavy", 0.25, 0.35, 0.10, Protocol::kPrecedenceAgreement},
      {"extreme", 0.50, 0.50, 0.15, Protocol::kPrecedenceAgreement},
  };
  StlEvaluator ev(DefaultSys(), 48);
  const TxnShape shape{2, 2};
  for (const Row& r : rows) {
    ProtocolParams p2;
    p2.u_lock = r.u;
    p2.u_lock_aborted = r.u * 2;
    p2.p_abort = r.p_abort;
    ProtocolParams pto;
    pto.u_lock = r.u;
    pto.u_lock_aborted = r.u * 0.5;
    pto.p_reject_read = r.p_negative;
    pto.p_reject_write = r.p_negative;
    ProtocolParams ppa = pto;
    ppa.u_lock = r.u * 1.2;
    ppa.u_lock_aborted = r.u * 0.6;
    const double stl[kNumProtocols] = {Stl2pl(ev, shape, p2),
                                       StlTo(ev, shape, pto),
                                       StlPa(ev, shape, ppa)};
    // Ties go to the earlier protocol, as in MinStlSelector.
    const auto lowest = static_cast<Protocol>(
        std::min_element(stl, stl + kNumProtocols) - stl);
    EXPECT_EQ(lowest, r.lowest) << r.name << ": STL 2PL " << stl[0]
                                << ", T/O " << stl[1] << ", PA " << stl[2];
    if (r.p_abort == 0 && r.p_negative == 0) {
      EXPECT_DOUBLE_EQ(stl[0], stl[1]) << "idle: 2PL and T/O should tie";
    }
  }
}

TEST(ParamEstimatorTest, SnapshotComputesRatesAndMix) {
  ParamEstimator est;
  for (int i = 0; i < 60; ++i) est.OnGrant(OpType::kRead);
  for (int i = 0; i < 40; ++i) est.OnGrant(OpType::kWrite);
  for (int i = 0; i < 30; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kRead);
  }
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTwoPhaseLocking, OpType::kWrite);
  }
  TxnResult r;
  r.protocol = Protocol::kTwoPhaseLocking;
  r.num_requests = 5;
  r.attempts = 1;
  est.OnCommit(r);
  const SystemParams s = est.Snapshot(2 * kSecond, 10);
  EXPECT_DOUBLE_EQ(s.lambda_a, 50.0);      // 100 grants / 2s
  EXPECT_DOUBLE_EQ(s.lambda_r, 3.0);       // 60/2s/10 queues
  EXPECT_DOUBLE_EQ(s.lambda_w, 2.0);
  EXPECT_DOUBLE_EQ(s.q_r, 0.75);
  EXPECT_DOUBLE_EQ(s.k_avg, 5.0);
}

TEST(ParamEstimatorTest, RejectProbabilities) {
  ParamEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  for (int i = 0; i < 20; ++i) {
    est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  }
  const ProtocolParams p = est.For(Protocol::kTimestampOrdering);
  EXPECT_DOUBLE_EQ(p.p_reject_read, 0.2);
  EXPECT_DOUBLE_EQ(p.p_reject_write, 0.0);
}

TEST(ParamEstimatorTest, LockHoldMeans) {
  ParamEstimator est;
  est.OnLockHold(Protocol::kPrecedenceAgreement, 100 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 200 * kMillisecond, false);
  est.OnLockHold(Protocol::kPrecedenceAgreement, 50 * kMillisecond, true);
  const ProtocolParams p = est.For(Protocol::kPrecedenceAgreement);
  EXPECT_NEAR(p.u_lock, 0.15, 1e-9);
  EXPECT_NEAR(p.u_lock_aborted, 0.05, 1e-9);
}

TEST(ParamEstimatorTest, DecayWindowForgetsOldStatistics) {
  // Phase one: T/O rejects half its reads. Much later (many windows),
  // phase two rejects nothing. A windowed estimator re-converges to the
  // recent behaviour; the default run-total estimator stays anchored on
  // the blended average.
  ParamEstimator windowed, total;
  windowed.SetDecayWindow(1 * kSecond);
  for (ParamEstimator* est : {&windowed, &total}) {
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    for (int i = 0; i < 50; ++i) {
      est->OnReject(OpType::kRead, Protocol::kTimestampOrdering);
    }
    est->Snapshot(1 * kSecond, 1);  // advance the decay clock to t=1s
  }
  EXPECT_NEAR(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.5,
              1e-9);
  // Phase two at t=10s: nine windows of silence decayed phase one to
  // e^-9; 100 clean requests now dominate the ratio.
  for (ParamEstimator* est : {&windowed, &total}) {
    est->Snapshot(10 * kSecond, 1);
    for (int i = 0; i < 100; ++i) {
      est->OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
    }
    est->Snapshot(10 * kSecond + 1, 1);
  }
  EXPECT_LT(windowed.For(Protocol::kTimestampOrdering).p_reject_read, 0.01);
  EXPECT_NEAR(total.For(Protocol::kTimestampOrdering).p_reject_read, 0.25,
              1e-9);
}

TEST(ParamEstimatorTest, DecayedRatesUseTheWindowedTimeBase) {
  // A constant 100 grants/s fed in 100ms batches: after several windows
  // the windowed rate estimate converges to the true rate instead of
  // being diluted by the run length.
  ParamEstimator est;
  est.SetDecayWindow(2 * kSecond);
  SystemParams s{};
  for (int tick = 1; tick <= 200; ++tick) {
    for (int i = 0; i < 10; ++i) est.OnGrant(OpType::kRead);
    s = est.Snapshot(static_cast<SimTime>(tick) * 100 * kMillisecond, 1);
  }
  EXPECT_NEAR(s.lambda_r, 100.0, 10.0);
  // Exact commit count is never decayed.
  EXPECT_EQ(est.total_commits(), 0u);
}

TEST(ParamEstimatorTest, ZeroWindowKeepsRunTotals) {
  ParamEstimator est;  // default: no decay
  for (int i = 0; i < 10; ++i) {
    est.OnRequestSent(Protocol::kTimestampOrdering, OpType::kRead);
  }
  est.OnReject(OpType::kRead, Protocol::kTimestampOrdering);
  est.Snapshot(100 * kSecond, 1);
  est.Snapshot(200 * kSecond, 1);
  EXPECT_NEAR(est.For(Protocol::kTimestampOrdering).p_reject_read, 0.1,
              1e-12);
}

TEST(ParamEstimatorTest, TwoPlAbortProbability) {
  ParamEstimator est;
  for (int i = 0; i < 9; ++i) {
    TxnResult r;
    r.protocol = Protocol::kTwoPhaseLocking;
    r.attempts = 1;
    r.num_requests = 2;
    est.OnCommit(r);
  }
  est.OnRestart(Protocol::kTwoPhaseLocking,
                TxnOutcome::kRestartedByDeadlock);
  const ProtocolParams p = est.For(Protocol::kTwoPhaseLocking);
  EXPECT_NEAR(p.p_abort, 0.1, 1e-9);
}

}  // namespace
}  // namespace unicc
