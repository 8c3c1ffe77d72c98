#include "stl/evaluator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"

namespace unicc {

namespace {

// Two sweep lanes. Arithmetic on a GCC vector type is lane-wise IEEE
// arithmetic (SSE2 on x86-64), so each lane computes what the scalar code
// would (see evaluator.h).
using Vec2 = double __attribute__((vector_size(16)));
constexpr int kVecs = StlEvaluator::kMaxLanes / 2;

// One level's coefficients per lane (names as in evaluator.h).
struct LevelCoeffs {
  std::array<Vec2, kVecs> r, l, lh, w, c, w_minus_c;
};

// Advances every lane by one level: `above` and `cur` hold grid point i
// of vector j at [i * kVecs + j], `ih` the grid abscissae i·h in the same
// layout. The vectors' recurrences are independent, so they overlap.
void SweepLevel(int m, const LevelCoeffs& k, const Vec2* ih,
                const Vec2* above, Vec2* cur) {
  Vec2 r_pow[kVecs];  // r^{i-1}, then r^i
  Vec2 p[kVecs];      // P_{i-1}; P_0 = above[0] = 0
  Vec2 t[kVecs];      // T_{i-1}
  for (int j = 0; j < kVecs; ++j) {
    r_pow[j] = Vec2{1, 1};
    p[j] = Vec2{0, 0};
    t[j] = Vec2{0, 0};
    cur[j] = Vec2{0, 0};
  }
  for (int i = 1; i < m; ++i) {
    const double i_prev = static_cast<double>(i - 1);
    for (int j = 0; j < kVecs; ++j) {
      const int at = i * kVecs + j;
      t[j] += k.lh[j] * r_pow[j] * (k.w[j] * i_prev + k.c[j]);
      const Vec2 p_i = above[at] + k.r[j] * p[j];
      r_pow[j] *= k.r[j];
      // No-block branch, then the convolution.
      Vec2 v = r_pow[j] * k.l[j] * ih[at];
      v += t[j] + k.w_minus_c[j] * p_i + k.c[j] * p[j];
      cur[at] = v;
      p[j] = p_i;
    }
  }
}

}  // namespace

StlEvaluator::StlEvaluator(SystemParams params, int grid_points)
    : params_(params), grid_points_(grid_points) {
  UNICC_CHECK(params_.lambda_a > 0);
  UNICC_CHECK(params_.lambda_r >= 0 && params_.lambda_w >= 0);
  UNICC_CHECK(params_.q_r >= 0 && params_.q_r <= 1);
  UNICC_CHECK(params_.k_avg >= 1);
  UNICC_CHECK(grid_points_ >= 2);
}

double StlEvaluator::LambdaNew() const {
  return params_.lambda_w + (1 - params_.q_r) * params_.lambda_r;
}

double StlEvaluator::LambdaBlock(double lambda_loss) const {
  const double la = params_.lambda_a;
  if (lambda_loss >= la) return 0;
  const double p_block = std::clamp(lambda_loss / la, 0.0, 1.0);
  return (la - lambda_loss) *
         (1 - std::pow(1 - p_block, params_.k_avg - 1));
}

double StlEvaluator::Evaluate(double lambda_loss, double u_seconds) const {
  const StlTerm term{lambda_loss, u_seconds};
  double out = 0;
  Sweep({&term, 1}, {&out, 1});
  return out;
}

void StlEvaluator::Sweep(std::span<const StlTerm> terms,
                         std::span<double> out) const {
  UNICC_CHECK(terms.size() <= static_cast<std::size_t>(kMaxLanes));
  UNICC_CHECK(out.size() == terms.size());
  const double la = params_.lambda_a;
  const double lnew = LambdaNew();
  const int m = grid_points_;

  // Lane k sweeps terms[k] over levels[k] loss levels with step h[k]; a
  // term that takes an early exit gets no levels. shares[k] is the first
  // lane with the same start loss.
  std::array<int, kMaxLanes> levels{}, shares{};
  std::array<double, kMaxLanes> h{};
  int top = 0;
  for (std::size_t k = 0; k < terms.size(); ++k) {
    const double lambda_loss = terms[k].lambda_loss;
    const double u_seconds = terms[k].u_seconds;
    UNICC_CHECK(lambda_loss >= 0 && u_seconds >= 0);
    if (u_seconds == 0) {
      out[k] = 0;
      continue;
    }
    if (lambda_loss >= la) {
      out[k] = la * u_seconds;
      continue;
    }
    // Number of loss levels until saturation; each new blocking grant adds
    // lnew of loss. With no levels (lnew == 0) nothing escalates and the
    // loss is deterministic.
    if (lnew > 1e-12) {
      levels[k] = static_cast<int>(
          std::min(std::ceil((la - lambda_loss) / lnew), 4096.0));
    }
    if (levels[k] == 0) {
      out[k] = lambda_loss * u_seconds;
      continue;
    }
    h[k] = u_seconds / (m - 1);
    top = std::max(top, levels[k]);
    shares[k] = static_cast<int>(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (levels[j] > 0 && terms[j].lambda_loss == lambda_loss) {
        shares[k] = static_cast<int>(j);
        break;
      }
    }
  }
  if (top == 0) return;

  // ih, then the two level buffers, each m grid points of kVecs vectors.
  // Both level buffers start at the saturated level, λ_A·x_i, which a lane
  // keeps until it joins the sweep.
  const std::size_t stride = static_cast<std::size_t>(m) * kVecs;
  std::vector<Vec2> buf(3 * stride, Vec2{0, 0});
  Vec2* ih = buf.data();
  Vec2* above = ih + stride;
  Vec2* cur = above + stride;
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < kMaxLanes; ++k) {
      const int at = i * kVecs + k / 2;
      ih[at][k % 2] = static_cast<double>(i) * h[k];
      above[at][k % 2] = cur[at][k % 2] = la * ih[at][k % 2];
    }
  }
  // Lanes start as the saturated fixed point: r = 1 and no convolution.
  LevelCoeffs coeffs;
  for (int j = 0; j < kVecs; ++j) {
    coeffs.r[j] = Vec2{1, 1};
    coeffs.l[j] = Vec2{la, la};
    coeffs.lh[j] = coeffs.w[j] = coeffs.c[j] = coeffs.w_minus_c[j] =
        Vec2{0, 0};
  }

  // Sweep levels from (top-1) down to 0; level n has loss l_n, and lane k
  // joins at its own top level, levels[k]-1. The convolution against the
  // exponential first-block density is integrated exactly per grid
  // interval with g(x) = l*x + S_next(u-x) interpolated linearly, which
  // keeps STL' <= lambda_a*U for any lambda_block*h (see evaluator.h).
  std::array<double, kMaxLanes> l{}, b{};
  for (int n = top - 1; n >= 0; --n) {
    for (int k = 0; k < kMaxLanes; ++k) {
      if (levels[k] <= n) continue;
      if (shares[k] == k) {
        l[k] = std::min(terms[k].lambda_loss + n * lnew, la);
        b[k] = LambdaBlock(l[k]);
      } else {
        l[k] = l[shares[k]];
        b[k] = b[shares[k]];
      }
      const double r = std::exp(-b[k] * h[k]);
      const int j = k / 2;
      const int s = k % 2;
      coeffs.r[j][s] = r;
      coeffs.l[j][s] = l[k];
      if (b[k] > 1e-12) {
        const double w = 1 - r;
        // c = \int_0^h b*y*e^{-by} dy / h, normalized slope weight.
        const double c = (1 - r * (1 + b[k] * h[k])) / (b[k] * h[k]);
        coeffs.lh[j][s] = l[k] * h[k];
        coeffs.w[j][s] = w;
        coeffs.c[j][s] = c;
        coeffs.w_minus_c[j][s] = w - c;
      } else {
        coeffs.lh[j][s] = coeffs.w[j][s] = coeffs.c[j][s] =
            coeffs.w_minus_c[j][s] = 0;
      }
    }
    SweepLevel(m, coeffs, ih, above, cur);
    std::swap(above, cur);
  }
  for (std::size_t k = 0; k < terms.size(); ++k) {
    if (levels[k] > 0) out[k] = above[(m - 1) * kVecs + k / 2][k % 2];
  }
}

}  // namespace unicc
