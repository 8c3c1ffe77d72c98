#include "stl/analytic.h"

#include <gtest/gtest.h>

namespace unicc {
namespace {

AnalyticInputs Base() {
  AnalyticInputs in;
  in.lambda = 40;
  in.k_avg = 4;
  in.db_size = 100;
  in.write_fraction = 0.5;
  in.base_residence_s = 0.03;
  in.out_of_order_prob = 0.3;
  return in;
}

TEST(AnalyticTest, LittlesLaw) {
  const auto est = EstimateAnalytically(Base());
  EXPECT_DOUBLE_EQ(est.n_in_flight, 40 * 0.03);
}

TEST(AnalyticTest, ProbabilitiesAreValid) {
  const auto est = EstimateAnalytically(Base());
  for (double p : {est.p_conflict, est.p_block, est.twopl.p_abort,
                   est.to.p_reject_read, est.to.p_reject_write,
                   est.pa.p_reject_read, est.pa.p_reject_write}) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 0.95);
  }
}

TEST(AnalyticTest, ConflictGrowsWithLoad) {
  AnalyticInputs in = Base();
  double prev = 0;
  for (double lambda : {10.0, 40.0, 100.0, 200.0}) {
    in.lambda = lambda;
    const auto est = EstimateAnalytically(in);
    EXPECT_GE(est.p_conflict, prev);
    prev = est.p_conflict;
  }
}

TEST(AnalyticTest, DeadlockProbabilityGrowsSuperlinearlyWithSize) {
  AnalyticInputs in = Base();
  in.k_avg = 2;
  const double small = EstimateAnalytically(in).twopl.p_abort;
  in.k_avg = 8;
  const double large = EstimateAnalytically(in).twopl.p_abort;
  // P_A ~ K^2 * p_block^2 and p_block itself carries a factor K: the
  // growth from K=2 to K=8 must far exceed the 4x linear ratio.
  EXPECT_GT(large, small * 16);
}

TEST(AnalyticTest, ReadOnlyWorkloadNeverConflicts) {
  AnalyticInputs in = Base();
  in.write_fraction = 0;
  const auto est = EstimateAnalytically(in);
  EXPECT_DOUBLE_EQ(est.p_conflict, 0);
  EXPECT_DOUBLE_EQ(est.twopl.p_abort, 0);
  EXPECT_DOUBLE_EQ(est.to.p_reject_write, 0);
}

TEST(AnalyticTest, SynchronizedClocksMeanNoRejects) {
  AnalyticInputs in = Base();
  in.out_of_order_prob = 0;
  const auto est = EstimateAnalytically(in);
  EXPECT_DOUBLE_EQ(est.to.p_reject_read, 0);
  EXPECT_DOUBLE_EQ(est.to.p_reject_write, 0);
  EXPECT_DOUBLE_EQ(est.pa.p_reject_write, 0);
  // 2PL deadlocks are unaffected by clock skew.
  EXPECT_GT(est.twopl.p_abort, 0);
}

TEST(AnalyticTest, SystemRatesConsistent) {
  const auto est = EstimateAnalytically(Base());
  EXPECT_DOUBLE_EQ(est.system.lambda_a, 40 * 4);
  EXPECT_NEAR(est.system.lambda_r + est.system.lambda_w,
              est.system.lambda_a / 100, 1e-12);
  EXPECT_DOUBLE_EQ(est.system.q_r, 0.5);
}

TEST(AnalyticTest, FeedsTheStlEvaluator) {
  // End-to-end: analytic estimates drive the same estimator formulas used
  // by the selector, producing finite, ordered results.
  const auto est = EstimateAnalytically(Base());
  StlEvaluator ev(est.system, 32);
  const ClassStl stl = EstimateStl(ev, {2, 2}, {est.twopl, est.to, est.pa});
  EXPECT_GT(stl.stl_2pl, 0);
  EXPECT_GT(stl.stl_to, 0);
  EXPECT_GT(stl.stl_pa, 0);
}

TEST(AnalyticTest, AnalyticVsMeasuredSameOrderOfMagnitude) {
  // Cross-check against E1-style measurements: at lambda=100/s, 60 items,
  // st=4, 50% reads the online estimator observed p_reject ~ 0.02-0.06 and
  // p_abort < 0.01; the analytic model should land in the same decade.
  AnalyticInputs in;
  in.lambda = 100;
  in.k_avg = 4;
  in.db_size = 60;
  in.write_fraction = 0.5;
  in.base_residence_s = 0.028;
  in.out_of_order_prob = 0.25;
  const auto est = EstimateAnalytically(in);
  EXPECT_GT(est.to.p_reject_write, 0.005);
  EXPECT_LT(est.to.p_reject_write, 0.2);
  EXPECT_LT(est.twopl.p_abort, 0.1);
}

}  // namespace
}  // namespace unicc
