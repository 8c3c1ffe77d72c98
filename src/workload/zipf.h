// Zipfian item-popularity distributions (skewed access patterns /
// hotspots). Both samplers share the rank convention "rank 0 is the most
// popular": p(rank) proportional to 1/(rank+1)^theta.
//
//   ZipfGenerator          precomputed CDF plus a guide table: O(n)
//                          memory and setup, a short search per draw.
//                          Exact and cheap for small key spaces;
//                          theta = 0 degenerates to uniform.
//   ZipfRejectionSampler   rejection-inversion (Hormann & Derflinger, the
//                          sampler YCSB uses): O(1) memory, O(1) setup,
//                          O(1) expected draws. Requires theta > 0; used
//                          for macro-scale key spaces (see
//                          workload/access.h for the cutoff).
#ifndef UNICC_WORKLOAD_ZIPF_H_
#define UNICC_WORKLOAD_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace unicc {

class ZipfGenerator {
 public:
  // `n` ranks with exponent `theta` >= 0.
  ZipfGenerator(std::uint64_t n, double theta);

  // Draws a rank in [0, n); rank 0 is the most popular.
  std::uint64_t Next(Rng& rng) const { return Rank(rng.UniformDouble()); }

  // The rank a uniform draw `u` in [0, 1) maps to: the first index whose
  // CDF entry is >= u, as std::lower_bound over cdf() returns it. The
  // guide table narrows the search to one bucket's ranks (Chen & Asau's
  // guide-table inversion, AIIE Transactions 6(2), 1974).
  std::uint64_t Rank(double u) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  // The normalized cumulative probabilities (cdf().back() == 1.0 exactly;
  // the accumulation is Kahan-compensated so interior entries do not
  // drift at large n). Exposed for distribution tests.
  const std::vector<double>& cdf() const { return cdf_; }

  // The guide table's bucket count 2^k: n rounded up to a power of two,
  // at most 2^20. Exposed so tests can probe every bucket edge.
  std::size_t num_buckets() const { return guide_.size() - 1; }

 private:
  std::uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cumulative probabilities
  // guide_[b] is the rank of b / num_buckets() (b = 0..num_buckets()), so
  // a draw in bucket b has its rank in [guide_[b], guide_[b + 1]].
  std::vector<std::uint32_t> guide_;
};

// Rejection-inversion sampler over the same distribution, after Hormann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions" (the algorithm behind YCSB's scrambled Zipfian
// and Apache Commons' RejectionInversionZipfSampler). Setup computes
// three constants; each draw inverts the integral of a majorizing
// function and accepts with probability ~1, so draws are O(1) expected
// and independent of n. Requires theta > 0 (theta = 0 has no majorizer;
// callers use a uniform draw instead).
class ZipfRejectionSampler {
 public:
  ZipfRejectionSampler(std::uint64_t n, double theta);

  // Draws a rank in [0, n); rank 0 is the most popular.
  std::uint64_t Next(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  // H(x) = integral of h(x) = x^-theta, shifted so H is finite at
  // theta = 1; HIntegralInverse is its exact inverse.
  double HIntegral(double x) const;
  double H(double x) const;
  double HIntegralInverse(double x) const;

  std::uint64_t n_;
  double theta_;
  double h_integral_x1_;  // HIntegral(1.5) - 1
  double h_integral_n_;   // HIntegral(n + 0.5)
  double s_;              // acceptance shortcut threshold
};

}  // namespace unicc

#endif  // UNICC_WORKLOAD_ZIPF_H_
