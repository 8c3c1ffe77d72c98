#include "workload/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace unicc {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  UNICC_CHECK(n > 0);
  UNICC_CHECK(n <= std::numeric_limits<std::uint32_t>::max());  // guide_
  UNICC_CHECK(theta >= 0);
  cdf_.resize(n);
  // Kahan-compensated accumulation: the naive running sum drifts by
  // O(n * eps) at large n, which skews the normalized interior entries.
  // For theta = 0 every term is exactly 1.0 and the compensation stays
  // zero, so this is bit-identical to the uncompensated sum there.
  double sum = 0;
  double comp = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double term = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    const double y = term - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
    cdf_[i] = sum;
  }
  // cdf_[n-1] == sum, so the last normalized entry is exactly 1.0.
  for (double& c : cdf_) c /= sum;

  // One bucket per rank, up to 2^20 buckets (4 MB): a bucket then spans
  // one rank on average, and only the tail's thin ranks share one.
  const std::size_t buckets = std::bit_ceil(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, 1u << 20)));
  guide_.resize(buckets + 1);
  // One merge pass: guide_[b] = lower_bound(cdf_, b / buckets). The last
  // edge is 1.0, whose rank is at most n - 1 since cdf_.back() == 1.0.
  std::uint32_t rank = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(buckets);
    while (cdf_[rank] < edge) ++rank;
    guide_[b] = rank;
  }
}

std::uint64_t ZipfGenerator::Rank(double u) const {
  // u * 2^k only moves the exponent, so it is exact and its floor is the
  // bucket whose edges bracket u: b / 2^k <= u < (b + 1) / 2^k. The rank
  // is monotone in u, so it lies in [guide_[b], guide_[b + 1]], and
  // lower_bound over the half-open range returns guide_[b + 1] itself
  // when every entry before it is below u.
  const auto b = static_cast<std::size_t>(
      u * static_cast<double>(num_buckets()));
  const auto first = cdf_.begin() + guide_[b];
  const auto last = cdf_.begin() + guide_[b + 1];
  return static_cast<std::uint64_t>(std::lower_bound(first, last, u) -
                                    cdf_.begin());
}

namespace {

// log1p(x)/x, continued past the 0/0 singularity by its Taylor series.
double Helper1(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

// expm1(x)/x, continued past the 0/0 singularity by its Taylor series.
double Helper2(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25));
}

}  // namespace

ZipfRejectionSampler::ZipfRejectionSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  UNICC_CHECK(n > 0);
  UNICC_CHECK(theta > 0);
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfRejectionSampler::H(double x) const {
  return std::exp(-theta_ * std::log(x));
}

double ZipfRejectionSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper2((1.0 - theta_) * log_x) * log_x;
}

double ZipfRejectionSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - theta_);
  if (t < -1.0) t = -1.0;  // clamp round-off outside HIntegral's range
  return std::exp(Helper1(t) * x);
}

std::uint64_t ZipfRejectionSampler::Next(Rng& rng) const {
  for (;;) {
    const double u = h_integral_n_ +
                     rng.UniformDouble() * (h_integral_x1_ - h_integral_n_);
    // u is in (HIntegral(n + 0.5), HIntegral(1.5) - 1], so x is in
    // (0, n + 0.5] and k = round(x) clamps into [1, n].
    const double x = HIntegralInverse(u);
    std::uint64_t k =
        x + 0.5 < 1.0 ? 1 : static_cast<std::uint64_t>(x + 0.5);
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return k - 1;  // rank 0 is the most popular
    }
  }
}

}  // namespace unicc
