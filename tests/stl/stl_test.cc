#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
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
  StlEvaluator ev(DefaultSys(), 48);
  EXPECT_EQ(ev.Evaluate(5, 0), 0);
}

TEST(StlEvaluatorTest, SaturatedLossIsLambdaAU) {
  StlEvaluator ev(DefaultSys(), 48);
  EXPECT_DOUBLE_EQ(ev.Evaluate(100, 0.5), 100 * 0.5);
  EXPECT_DOUBLE_EQ(ev.Evaluate(150, 0.5), 100 * 0.5);
}

TEST(StlEvaluatorTest, BoundedByLambdaAU) {
  StlEvaluator ev(DefaultSys(), 48);
  for (double l : {0.5, 2.0, 10.0, 50.0}) {
    for (double u : {0.01, 0.1, 1.0}) {
      const double v = ev.Evaluate(l, u);
      EXPECT_LE(v, 100 * u * 1.0001) << "l=" << l << " u=" << u;
      EXPECT_GE(v, l * u * 0.9999) << "l=" << l << " u=" << u;
    }
  }
}

TEST(StlEvaluatorTest, MonotoneInInitialLoss) {
  StlEvaluator ev(DefaultSys(), 48);
  double prev = 0;
  for (double l : {1.0, 5.0, 20.0, 60.0, 90.0}) {
    const double v = ev.Evaluate(l, 0.2);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(StlEvaluatorTest, MonotoneInDuration) {
  StlEvaluator ev(DefaultSys(), 48);
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
  StlEvaluator ev(s, 48);
  EXPECT_DOUBLE_EQ(ev.Evaluate(7, 0.3), 7 * 0.3);
}

TEST(StlEvaluatorTest, LambdaBlockEdgeCases) {
  StlEvaluator ev(DefaultSys(), 48);
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(0), 0);    // no loss, nothing blocks
  EXPECT_DOUBLE_EQ(ev.LambdaBlock(100), 0);  // no free throughput left
  EXPECT_GT(ev.LambdaBlock(50), 0);
}

TEST(StlEvaluatorTest, LambdaNewFormula) {
  StlEvaluator ev(DefaultSys(), 48);
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
  StlEvaluator ev(s, 48);
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

// The scalar one-term DP and the three per-protocol formulas as they were
// before Sweep ran terms in lockstep, kept frozen: Sweep and EstimateStl
// must match them bit for bit, so that no selection and no digest moves.
namespace frozen {

double LambdaBlock(const SystemParams& s, double lambda_loss) {
  const double la = s.lambda_a;
  if (lambda_loss >= la) return 0;
  const double p_block = std::clamp(lambda_loss / la, 0.0, 1.0);
  return (la - lambda_loss) * (1 - std::pow(1 - p_block, s.k_avg - 1));
}

double Evaluate(const SystemParams& s, int m, double lambda_loss,
                double u_seconds) {
  if (u_seconds == 0) return 0;
  const double la = s.lambda_a;
  if (lambda_loss >= la) return la * u_seconds;
  const double lnew = s.lambda_w + (1 - s.q_r) * s.lambda_r;
  int levels = 0;
  if (lnew > 1e-12) {
    levels = static_cast<int>(std::min(std::ceil((la - lambda_loss) / lnew),
                                       4096.0));
  }
  if (levels == 0) return lambda_loss * u_seconds;
  const double h = u_seconds / (m - 1);
  std::vector<double> above(m), cur(m);
  for (int i = 0; i < m; ++i) {
    above[i] = la * (static_cast<double>(i) * h);
  }
  for (int n = levels - 1; n >= 0; --n) {
    const double l = std::min(lambda_loss + n * lnew, la);
    const double b = LambdaBlock(s, l);
    const double r = std::exp(-b * h);
    const double w = 1 - r;
    const double c = b > 1e-12 ? (1 - r * (1 + b * h)) / (b * h) : 0.0;
    const double lh = l * h;
    double r_pow = 1;
    double p = 0;
    double t = 0;
    cur[0] = 0;
    for (int i = 1; i < m; ++i) {
      t += lh * r_pow * (w * (i - 1) + c);
      const double p_i = above[i] + r * p;
      r_pow *= r;
      double v = r_pow * l * (static_cast<double>(i) * h);
      if (b > 1e-12) v += t + (w - c) * p_i + c * p;
      cur[i] = v;
      p = p_i;
    }
    std::swap(above, cur);
  }
  return above[m - 1];
}

double ClampProb(double p) { return std::clamp(p, 0.0, 0.95); }

double Stl2pl(const SystemParams& sys, int m, TxnShape shape,
              const ProtocolParams& p) {
  const double lt = LambdaT(sys, shape);
  const double pa = ClampProb(p.p_abort);
  const double success = Evaluate(sys, m, lt, p.u_lock);
  const double aborted = Evaluate(sys, m, lt, p.u_lock_aborted);
  return ((1 - pa) * success + pa * aborted) / (1 - pa);
}

double StlTo(const SystemParams& sys, int m, TxnShape shape,
             const ProtocolParams& p) {
  const double lt = LambdaT(sys, shape);
  const double pr = ClampProb(p.p_reject_read);
  const double pw = ClampProb(p.p_reject_write);
  const double ps = std::pow(1 - pr, shape.m) * std::pow(1 - pw, shape.n);
  const double expected = shape.m * (1 - pr) * sys.lambda_w +
                          shape.n * (1 - pw) *
                              (sys.lambda_w + sys.lambda_r);
  double lt_star = lt;
  if (1 - ps > 1e-9) {
    lt_star = (expected - ps * lt) / (1 - ps);
    lt_star = std::clamp(lt_star, 0.0, sys.lambda_a);
  }
  const double ps_safe = std::max(ps, 0.05);
  const double success = Evaluate(sys, m, lt, p.u_lock);
  const double rejected = Evaluate(sys, m, lt_star, p.u_lock_aborted);
  return (ps_safe * success + (1 - ps_safe) * rejected) / ps_safe;
}

double StlPa(const SystemParams& sys, int m, TxnShape shape,
             const ProtocolParams& p) {
  const double lt = LambdaT(sys, shape);
  const double pb = ClampProb(p.p_reject_read);
  const double pbw = ClampProb(p.p_reject_write);
  const double ps = std::pow(1 - pb, shape.m) * std::pow(1 - pbw, shape.n);
  const double expected = shape.m * (1 - pb) * sys.lambda_w +
                          shape.n * (1 - pbw) *
                              (sys.lambda_w + sys.lambda_r);
  double lt_dag = lt;
  if (1 - ps > 1e-9) {
    lt_dag = (expected - ps * lt) / (1 - ps);
    lt_dag = std::clamp(lt_dag, 0.0, sys.lambda_a);
  }
  const double success = Evaluate(sys, m, lt, p.u_lock);
  const double backed_off = Evaluate(sys, m, lt_dag, p.u_lock_aborted);
  return ps * success + (1 - ps) * (backed_off + success);
}

}  // namespace frozen

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Sweeps `terms` in one batch and checks every lane against the frozen
// scalar DP, bit for bit.
void ExpectSweepMatchesScalar(const SystemParams& s, int m,
                              std::span<const StlTerm> terms) {
  const StlEvaluator ev(s, m);
  std::vector<double> got(terms.size());
  ev.Sweep(terms, got);
  for (std::size_t k = 0; k < terms.size(); ++k) {
    const double want =
        frozen::Evaluate(s, m, terms[k].lambda_loss, terms[k].u_seconds);
    EXPECT_EQ(Bits(got[k]), Bits(want))
        << "lane " << k << " of " << terms.size() << ": got " << got[k]
        << " want " << want << "; m=" << m << " l=" << terms[k].lambda_loss
        << " U=" << terms[k].u_seconds << " la=" << s.lambda_a
        << " lr=" << s.lambda_r << " lw=" << s.lambda_w << " qr=" << s.q_r
        << " K=" << s.k_avg;
  }
}

SystemParams RandomSys(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  SystemParams s;
  s.lambda_a = 5 + 295 * unit(rng);
  s.lambda_r = 4 * unit(rng);
  s.lambda_w = 4 * unit(rng);
  s.q_r = unit(rng);
  s.k_avg = 1 + 7 * unit(rng);
  return s;
}

TEST(StlSweepTest, RandomSixLaneBatchesMatchScalarDpBitForBit) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 2000; ++iter) {
    const SystemParams s = RandomSys(rng);
    const int m = 2 + static_cast<int>(rng() % 63);  // 2..64
    std::array<StlTerm, 6> terms;
    for (std::size_t k = 0; k < terms.size(); ++k) {
      terms[k].lambda_loss = 1.02 * s.lambda_a * unit(rng);
      terms[k].u_seconds = rng() % 16 == 0 ? 0.0 : 0.5 * unit(rng);
      // Half the lanes share an earlier lane's start loss (and with it
      // that lane's LambdaBlock at every level), as a refresh's do.
      if (k > 0 && rng() % 2 == 0) {
        terms[k].lambda_loss = terms[rng() % k].lambda_loss;
      }
    }
    ExpectSweepMatchesScalar(s, m, terms);
    // A shorter batch: its prefix, down to the one-lane Evaluate.
    const std::size_t n = 1 + static_cast<std::size_t>(iter % 5);
    ExpectSweepMatchesScalar(s, m, std::span(terms).first(n));
    const StlEvaluator ev(s, m);
    EXPECT_EQ(Bits(ev.Evaluate(terms[0].lambda_loss, terms[0].u_seconds)),
              Bits(frozen::Evaluate(s, m, terms[0].lambda_loss,
                                    terms[0].u_seconds)));
  }
}

TEST(StlSweepTest, EdgeLanesMatchScalarDpBitForBit) {
  const SystemParams base = DefaultSys();
  const double la = base.lambda_a;
  for (int m : {2, 3, 32, 48, 64}) {
    SCOPED_TRACE(m);
    // Every early exit (U == 0, lambda_loss >= lambda_A) beside lanes that
    // join at the bottom level with lambda_block just above and just
    // below the 1e-12 cutoff, and a lane that sweeps every level and
    // reaches b = 0 at lambda_loss = 0.
    const StlEvaluator ev(base, m);
    const double above_cutoff = la - 2e-12;
    const double below_cutoff = la - 5e-13;
    ASSERT_GT(ev.LambdaBlock(above_cutoff), 1e-12);
    ASSERT_LT(ev.LambdaBlock(below_cutoff), 1e-12);
    const std::array<StlTerm, 6> exits = {{{5, 0},
                                           {la, 0.4},
                                           {2 * la, 0.4},
                                           {above_cutoff, 0.2},
                                           {below_cutoff, 0.2},
                                           {0, 0.3}}};
    ExpectSweepMatchesScalar(base, m, exits);
    // Zero levels: no escalation, whatever the start loss.
    SystemParams quiet = base;
    quiet.lambda_r = 0;
    quiet.lambda_w = 0;
    const std::array<StlTerm, 4> still = {{{7, 0.3}, {0, 0.3}, {7, 0},
                                           {la, 0.1}}};
    ExpectSweepMatchesScalar(quiet, m, still);
    // K == 1: lambda_block is 0 at every level of every lane.
    SystemParams single = base;
    single.k_avg = 1;
    const std::array<StlTerm, 3> never = {{{10, 0.3}, {10, 0.1}, {50, 0.2}}};
    ExpectSweepMatchesScalar(single, m, never);
    // The 4096-level clamp: lambda_A / lambda_new is far above 4096. Two
    // lanes share the clamped count, the others join lower down.
    SystemParams wide = base;
    wide.lambda_a = 1e4;
    wide.lambda_r = 0.1;
    wide.lambda_w = 0.1;
    ASSERT_GT(wide.lambda_a / StlEvaluator(wide, m).LambdaNew(), 4096);
    const std::array<StlTerm, 5> clamped = {{{1.0, 0.05},
                                             {1.0, 0.01},
                                             {2.0, 0.05},
                                             {9900, 0.02},
                                             {9999.95, 0.3}}};
    ExpectSweepMatchesScalar(wide, m, clamped);
  }
}

// A refresh sweeps only the failure terms that carry weight, so the lanes
// that share a sweep are any subset of its six terms, with early exits
// between them taking no lane. Every subset must match the scalar DP.
TEST(StlSweepTest, EverySubsetOfARefreshsTermsMatchesScalarDpBitForBit) {
  std::mt19937_64 rng(20261021);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 40; ++iter) {
    const SystemParams s = RandomSys(rng);
    const int m = 2 + static_cast<int>(rng() % 63);
    // Both 2PL terms and the T/O and PA success terms start at Λ_t; the
    // T/O and PA failure terms at Λ*_t and Λ†_t.
    const double lt = 0.9 * s.lambda_a * unit(rng);
    const std::array<StlTerm, 6> refresh = {{
        {lt, 0.5 * unit(rng)},
        {lt, 0.5 * unit(rng)},
        {lt, 0.5 * unit(rng)},
        {s.lambda_a * unit(rng), 0.5 * unit(rng)},
        {lt, 0.5 * unit(rng)},
        {s.lambda_a * unit(rng), 0.5 * unit(rng)},
    }};
    const std::array<StlTerm, 3> exits = {
        {{lt, 0}, {s.lambda_a, 0.2}, {2 * s.lambda_a, 0.1}}};
    for (unsigned subset = 1; subset < 64; ++subset) {
      SCOPED_TRACE(subset);
      const int chosen = std::popcount(subset);
      std::vector<StlTerm> terms;
      // Before each chosen term and after the last, an early exit half
      // the time, while the batch has room for it.
      auto maybe_exit = [&](int still_to_add) {
        const int used = static_cast<int>(terms.size()) + still_to_add;
        if (used < StlEvaluator::kMaxLanes && rng() % 2 == 0) {
          terms.push_back(exits[rng() % exits.size()]);
        }
      };
      int added = 0;
      for (std::size_t k = 0; k < refresh.size(); ++k) {
        if ((subset >> k & 1) == 0) continue;
        maybe_exit(chosen - added);
        terms.push_back(refresh[k]);
        ++added;
      }
      maybe_exit(0);
      ExpectSweepMatchesScalar(s, m, terms);
    }
  }
}

TEST(StlSweepTest, EstimateStlMatchesScalarFormulasBitForBit) {
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // A probability that is 0 a quarter of the time, so that T/O's and
  // PA's failure terms often share the success terms' start loss.
  auto prob = [&] { return rng() % 4 == 0 ? 0.0 : unit(rng); };
  for (int iter = 0; iter < 2000; ++iter) {
    // Bit b of `unweighted` gives protocol b's failure term a weight of
    // exactly 0, which EstimateStl does not sweep: 2PL's p_abort is 0, or
    // T/O's or PA's ps is 1. Every one of the eight combinations is drawn
    // 250 times.
    const unsigned unweighted = static_cast<unsigned>(iter) % 8;
    const SystemParams s = RandomSys(rng);
    const int m = 2 + static_cast<int>(rng() % 63);
    TxnShape shape{static_cast<int>(rng() % 7), static_cast<int>(rng() % 7)};
    if (shape.m + shape.n == 0) shape.m = 1;  // ps < 1 needs a request
    std::array<ProtocolParams, kNumProtocols> p;
    for (std::size_t proto = 0; proto < p.size(); ++proto) {
      ProtocolParams& q = p[proto];
      q.u_lock = 0.5 * unit(rng);
      q.u_lock_aborted = 0.5 * unit(rng);
      q.p_abort = prob();
      q.p_reject_read = prob();
      q.p_reject_write = prob();
      const bool weighted = (unweighted >> proto & 1) == 0;
      if (proto == static_cast<std::size_t>(Protocol::kTwoPhaseLocking)) {
        q.p_abort = weighted ? 0.01 + 0.98 * unit(rng) : 0.0;
      } else if (!weighted) {
        q.p_reject_read = q.p_reject_write = 0;
      } else {
        // A negative response is possible on an operation the shape has.
        (shape.m > 0 ? q.p_reject_read : q.p_reject_write) =
            0.01 + 0.98 * unit(rng);
      }
    }
    const StlEvaluator ev(s, m);
    const ClassStl got = EstimateStl(ev, shape, p);
    SCOPED_TRACE(unweighted);
    EXPECT_EQ(Bits(got.stl_2pl), Bits(frozen::Stl2pl(s, m, shape, p[0])));
    EXPECT_EQ(Bits(got.stl_to), Bits(frozen::StlTo(s, m, shape, p[1])));
    EXPECT_EQ(Bits(got.stl_pa), Bits(frozen::StlPa(s, m, shape, p[2])));
  }
}

TEST(EstimatorFormulaTest, LambdaT) {
  const SystemParams s = DefaultSys();
  // m=2 reads, n=3 writes: 2·λw + 3·(λw + λr).
  EXPECT_DOUBLE_EQ(LambdaT(s, {2, 3}), 2 * 0.6 + 3 * (0.6 + 0.4));
}

TEST(EstimatorFormulaTest, Stl2plNoAbortsEqualsPlainStl) {
  StlEvaluator ev(DefaultSys(), 48);
  ProtocolParams p;
  p.u_lock = 0.05;
  p.p_abort = 0;
  const TxnShape shape{2, 2};
  EXPECT_DOUBLE_EQ(EstimateStl(ev, shape, {p, p, p}).stl_2pl,
                   ev.Evaluate(LambdaT(ev.params(), shape), 0.05));
}

TEST(EstimatorFormulaTest, Stl2plIncreasesWithAbortProbability) {
  StlEvaluator ev(DefaultSys(), 48);
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pa : {0.0, 0.1, 0.3, 0.6}) {
    p.p_abort = pa;
    const double v = EstimateStl(ev, shape, {p, p, p}).stl_2pl;
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlToIncreasesWithRejectProbability) {
  StlEvaluator ev(DefaultSys(), 48);
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.03;
  const TxnShape shape{2, 2};
  double prev = 0;
  for (double pr : {0.0, 0.1, 0.3, 0.5}) {
    p.p_reject_read = pr;
    p.p_reject_write = pr;
    const double v = EstimateStl(ev, shape, {p, p, p}).stl_to;
    EXPECT_GT(v, prev * 0.999);
    prev = v;
  }
}

TEST(EstimatorFormulaTest, StlPaAtMostOneBackoff) {
  StlEvaluator ev(DefaultSys(), 48);
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  const TxnShape shape{2, 2};
  // Even with certain back-off, PA pays at most one extra STL' term.
  p.p_reject_read = 0.95;
  p.p_reject_write = 0.95;
  const double lt = LambdaT(ev.params(), shape);
  const double one = ev.Evaluate(lt, 0.05);
  const double v = EstimateStl(ev, shape, {p, p, p}).stl_pa;
  EXPECT_LE(v, 3.0 * one + 1e-9);
}

TEST(EstimatorFormulaTest, StlToVsPaWithSameProbabilities) {
  // With identical negative-response probabilities, T/O (geometric retry)
  // must cost at least as much as PA (single back-off).
  StlEvaluator ev(DefaultSys(), 48);
  ProtocolParams p;
  p.u_lock = 0.05;
  p.u_lock_aborted = 0.05;
  p.p_reject_read = 0.4;
  p.p_reject_write = 0.4;
  const ClassStl stl = EstimateStl(ev, {3, 3}, {p, p, p});
  EXPECT_GE(stl.stl_to, stl.stl_pa);
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
    const ClassStl c = EstimateStl(ev, shape, {p2, pto, ppa});
    const double stl[kNumProtocols] = {c.stl_2pl, c.stl_to, c.stl_pa};
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
