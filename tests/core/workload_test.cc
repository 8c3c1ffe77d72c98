#include "workload/access.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "../test_util.h"
#include "scenario/scenario.h"
#include "workload/zipf.h"

namespace unicc {
namespace {

using test::Drain;

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(1);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(rng)];
  for (const auto& [rank, n] : counts) {
    EXPECT_NEAR(n, 2000, 250) << "rank " << rank;
  }
}

TEST(ZipfTest, SkewedWhenThetaPositive) {
  ZipfGenerator zipf(100, 1.0);
  Rng rng(2);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next(rng)];
  // Rank 0 must be far more popular than rank 50.
  EXPECT_GT(counts[0], counts[50] * 10);
}

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(7, 0.9);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(rng), 7u);
}

TEST(ZipfTest, CdfLastEntryExactlyOneAtMillionItems) {
  // The Kahan-compensated accumulation normalizes by the exact final sum,
  // so the last CDF entry is exactly 1.0 even at n = 10^6 — the naive
  // running sum drifts by O(n * eps) and used to leave it slightly off,
  // occasionally letting UniformDouble() land past the table.
  ZipfGenerator zipf(1000000, 0.99);
  ASSERT_EQ(zipf.cdf().size(), 1000000u);
  EXPECT_EQ(zipf.cdf().back(), 1.0);
  for (std::size_t i = 1; i < zipf.cdf().size(); i += 9973) {
    EXPECT_GE(zipf.cdf()[i], zipf.cdf()[i - 1]);
  }
}

// The guide table only narrows the search: every rank must be the one a
// plain lower_bound over the whole CDF gives. Probed at u = 0, at every
// bucket edge and the double just below it, at the largest draw
// 1 - 2^-53, and at a million random draws (50,000 per generator).
TEST(ZipfTest, GuideTableRankMatchesPlainLowerBound) {
  for (const std::uint64_t n : {1u, 2u, 3u, 100u, 131072u}) {
    for (const double theta : {0.0, 0.5, 0.99, 1.5}) {
      const ZipfGenerator zipf(n, theta);
      const std::vector<double>& cdf = zipf.cdf();
      auto reference = [&cdf](double u) {
        return static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      };
      auto check = [&](double u) {
        ASSERT_EQ(zipf.Rank(u), reference(u))
            << "n " << n << " theta " << theta << " u " << u;
      };
      const std::size_t buckets = zipf.num_buckets();
      ASSERT_GE(buckets, n) << "n " << n;
      check(0.0);
      for (std::size_t b = 1; b < buckets; ++b) {
        const double edge =
            static_cast<double>(b) / static_cast<double>(buckets);
        check(edge);
        check(std::nextafter(edge, 0.0));
      }
      check(1.0 - 0x1.0p-53);
      Rng rng(40 + n);
      for (int i = 0; i < 50000; ++i) check(rng.UniformDouble());
    }
  }
}

TEST(ZipfRejectionTest, StaysInRange) {
  ZipfRejectionSampler zipf(1000, 1.2);
  Rng rng(21);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(zipf.Next(rng), 1000u);
}

TEST(ZipfRejectionTest, DeterministicForSameSeed) {
  ZipfRejectionSampler zipf(1u << 21, 0.99);
  Rng a(22), b(22);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(zipf.Next(a), zipf.Next(b));
}

// Chi-squared goodness of fit of both samplers against the exact Zipf
// probabilities, across the theta range the scenarios use. 50 bins,
// 100000 draws each; the 0.001-significance critical value for 49
// degrees of freedom is ~85.4, so a correct sampler fails with
// probability 1e-3 per (sampler, theta) — and the seeds are fixed, so
// the test is fully deterministic anyway.
TEST(ZipfRejectionTest, MatchesCdfSamplerDistribution) {
  constexpr std::uint64_t kItems = 50;
  constexpr int kDraws = 100000;
  constexpr double kCritical = 85.4;
  for (const double theta : {0.5, 0.99, 1.2}) {
    const ZipfGenerator cdf_sampler(kItems, theta);
    const ZipfRejectionSampler rej_sampler(kItems, theta);
    // Exact bin probabilities from the normalized CDF.
    std::vector<double> expected(kItems);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      expected[i] = cdf_sampler.cdf()[i] - (i == 0 ? 0.0 : cdf_sampler.cdf()[i - 1]);
      expected[i] *= kDraws;
    }
    Rng rng_cdf(31), rng_rej(32);
    std::vector<int> counts_cdf(kItems, 0), counts_rej(kItems, 0);
    for (int d = 0; d < kDraws; ++d) {
      ++counts_cdf[cdf_sampler.Next(rng_cdf)];
      ++counts_rej[rej_sampler.Next(rng_rej)];
    }
    double chi2_cdf = 0, chi2_rej = 0;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      const double dc = counts_cdf[i] - expected[i];
      const double dr = counts_rej[i] - expected[i];
      chi2_cdf += dc * dc / expected[i];
      chi2_rej += dr * dr / expected[i];
    }
    EXPECT_LT(chi2_cdf, kCritical) << "cdf sampler, theta " << theta;
    EXPECT_LT(chi2_rej, kCritical) << "rejection sampler, theta " << theta;
  }
}

TEST(ZipfRejectionTest, CutoffSelectsSampler) {
  // At or above the cutoff with skew: rejection-inversion. Below it, or
  // unskewed at any size, the CDF path (theta = 0 degenerates to
  // uniform, which needs no Zipf machinery at all).
  EXPECT_TRUE(ZipfUsesRejection(kZipfRejectionCutoff, 0.99));
  EXPECT_TRUE(ZipfUsesRejection(kZipfRejectionCutoff + 1, 0.5));
  EXPECT_FALSE(ZipfUsesRejection(kZipfRejectionCutoff - 1, 0.99));
  EXPECT_FALSE(ZipfUsesRejection(kZipfRejectionCutoff, 0.0));
  EXPECT_FALSE(ZipfUsesRejection(128, 0.99));

  // The factory honors the cutoff: a macro-scale pattern still draws
  // in-range, skewed toward low ranks.
  auto access = MakeZipfAccess(kZipfRejectionCutoff, 0.99);
  Rng rng(33);
  int low = 0;
  for (int i = 0; i < 10000; ++i) {
    const ItemId item = access->Next(rng, 0);
    ASSERT_LT(item, kZipfRejectionCutoff);
    if (item < kZipfRejectionCutoff / 100) ++low;
  }
  // Under uniform access ~1% of draws would land in the lowest 1%.
  EXPECT_GT(low, 2000);
}

// One class on its own, as OpenClass draws it for sweep_runner's grid
// cells: 4-item transactions, half reads, 20 arrivals/s, uniform
// popularity drawn as a Zipf CDF walk at theta = 0.
ScenarioClass GridClass(std::uint64_t txns) {
  ScenarioClass c;
  c.txns = txns;
  c.rate = 20;
  c.access = ScenarioClass::AccessKind::kZipf;
  return c;
}

TEST(OpenClassTest, GeneratesRequestedCount) {
  auto stream = OpenClass(GridClass(250), 100, 4, Rng(5));
  const std::vector<Arrival> arrivals = Drain(*stream);
  ASSERT_EQ(arrivals.size(), 250u);
  // Ids are 1..n, arrival times strictly ordered (exponential gaps > 0).
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].spec.id, i + 1);
    if (i > 0) {
      EXPECT_GE(arrivals[i].when, arrivals[i - 1].when);
    }
  }
}

TEST(OpenClassTest, RespectsSizeBounds) {
  ScenarioClass c = GridClass(200);
  c.size_min = 2;
  c.size_max = 5;
  auto stream = OpenClass(c, 50, 2, Rng(6));
  for (const Arrival& a : Drain(*stream)) {
    const std::size_t size = a.spec.NumRequests();
    EXPECT_GE(size, 2u);
    EXPECT_LE(size, 5u);
    EXPECT_TRUE(a.spec.Validate().ok());
    EXPECT_LT(a.spec.home, 2u);
  }
}

TEST(OpenClassTest, ReadFractionExtremes) {
  ScenarioClass c = GridClass(100);
  c.read_fraction = 0.0;
  auto writes = OpenClass(c, 50, 2, Rng(7));
  for (const Arrival& a : Drain(*writes)) {
    EXPECT_TRUE(a.spec.read_set.empty());
    EXPECT_FALSE(a.spec.write_set.empty());
  }
  c.read_fraction = 1.0;
  auto reads = OpenClass(c, 50, 2, Rng(8));
  for (const Arrival& a : Drain(*reads)) {
    EXPECT_TRUE(a.spec.write_set.empty());
  }
}

TEST(OpenClassTest, ArrivalRateApproximatelyRespected) {
  ScenarioClass c = GridClass(2000);
  c.rate = 50;
  auto stream = OpenClass(c, 100, 4, Rng(9));
  const std::vector<Arrival> arrivals = Drain(*stream);
  const double span_sec =
      static_cast<double>(arrivals.back().when) / kSecond;
  EXPECT_NEAR(2000.0 / span_sec, 50.0, 5.0);
}

TEST(OpenClassTest, DeterministicForSameSeed) {
  const ScenarioClass c = GridClass(50);
  auto a = OpenClass(c, 100, 4, Rng(10));
  auto b = OpenClass(c, 100, 4, Rng(10));
  const std::vector<Arrival> va = Drain(*a), vb = Drain(*b);
  ASSERT_EQ(va.size(), 50u);
  ASSERT_EQ(vb.size(), 50u);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].when, vb[i].when);
    EXPECT_EQ(va[i].spec.read_set, vb[i].spec.read_set);
    EXPECT_EQ(va[i].spec.write_set, vb[i].spec.write_set);
  }
}

// Every precondition of one class opened on its own aborts, naming it:
// the scenario parser checks these for parsed classes, but a class built
// in code reaches OpenClass unchecked.
TEST(OpenClassDeathTest, AbortsOnEachPrecondition) {
  const ScenarioClass good = GridClass(10);
  EXPECT_NE(OpenClass(good, 60, 4, Rng(1)), nullptr);
  EXPECT_DEATH(OpenClass(good, 60, 0, Rng(1)), "user site");
  const struct {
    void (*mutate)(ScenarioClass*);
    const char* message;
  } cases[] = {
      {[](ScenarioClass* c) { c->rate = 0; }, "rate"},
      {[](ScenarioClass* c) { c->rate = NAN; }, "rate"},
      {[](ScenarioClass* c) { c->size_min = 5; }, "size_min"},
      {[](ScenarioClass* c) { c->size_min = 0; }, "size_min"},
      {[](ScenarioClass* c) { c->size_max = 100; }, "item count"},
      {[](ScenarioClass* c) { c->read_fraction = 2; }, "read fraction"},
      {[](ScenarioClass* c) { c->read_fraction = NAN; }, "read fraction"},
      {[](ScenarioClass* c) { c->theta = -1; }, "zipf theta"},
  };
  for (const auto& c : cases) {
    ScenarioClass bad = good;
    c.mutate(&bad);
    EXPECT_DEATH(OpenClass(bad, 60, 4, Rng(1)), c.message) << c.message;
  }
}

TEST(ProtocolPolicyTest, FixedAlwaysSame) {
  auto policy = FixedProtocol(Protocol::kPrecedenceAgreement);
  TxnSpec spec;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy(spec), Protocol::kPrecedenceAgreement);
  }
}

TEST(ProtocolPolicyTest, MixedRoughlyProportional) {
  auto policy = MixedProtocol(2, 1, 1, Rng(11));
  TxnSpec spec;
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[static_cast<int>(policy(spec))];
  }
  EXPECT_NEAR(counts[0], 2000, 150);
  EXPECT_NEAR(counts[1], 1000, 120);
  EXPECT_NEAR(counts[2], 1000, 120);
}

TEST(ProtocolPolicyTest, ZeroWeightNeverChosen) {
  auto policy = MixedProtocol(1, 0, 1, Rng(12));
  TxnSpec spec;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(policy(spec), Protocol::kTimestampOrdering);
  }
}

}  // namespace
}  // namespace unicc
