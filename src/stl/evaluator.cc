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

// The terms that sweep, one lane each in term order; an odd count's last
// vector carries a spare lane with h = 0 and no levels. shares[s] is the
// first lane with lane s's start loss.
struct Lanes {
  int count = 0;
  std::array<int, StlEvaluator::kMaxLanes> levels{}, shares{};
  std::array<double, StlEvaluator::kMaxLanes> loss{}, h{};
};

// One level's coefficients per vector (names as in evaluator.h).
template <int V>
struct LevelCoeffs {
  Vec2 r[V], l[V], lh[V], w[V], c[V], w_minus_c[V];
};

// Advances every lane by one level: `above` and `cur` hold grid point i
// of vector j at [i * V + j], `ih` the grid abscissae i·h in the same
// layout. The vectors' recurrences are independent, so they overlap.
template <int V>
void SweepLevel(int m, const LevelCoeffs<V>& k, const Vec2* ih,
                const Vec2* above, Vec2* cur) {
  Vec2 r_pow[V];  // r^{i-1}, then r^i
  Vec2 p[V];      // P_{i-1}; P_0 = above[0] = 0
  Vec2 t[V];      // T_{i-1}
  for (int j = 0; j < V; ++j) {
    r_pow[j] = Vec2{1, 1};
    p[j] = Vec2{0, 0};
    t[j] = Vec2{0, 0};
    cur[j] = Vec2{0, 0};
  }
  for (int i = 1; i < m; ++i) {
    const double i_prev = static_cast<double>(i - 1);
    for (int j = 0; j < V; ++j) {
      const int at = i * V + j;
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

// Sweeps `lanes` packed into V vectors (lanes 2j and 2j+1 in vector j);
// out[s] = STL' of lane s.
template <int V>
void SweepLanes(const StlEvaluator& ev, int m, const Lanes& lanes,
                double* out) {
  const double la = ev.params().lambda_a;
  const double lnew = ev.LambdaNew();
  const int top =
      *std::max_element(lanes.levels.begin(), lanes.levels.begin() + 2 * V);
  // Every lane starts at the saturated level, λ_A·x_i, and keeps it until
  // it joins the sweep; the spare lane's is 0.
  Vec2 h[V];
  const std::size_t stride = static_cast<std::size_t>(m) * V;
  std::vector<Vec2> buf(3 * stride, Vec2{0, 0});
  Vec2* ih = buf.data();
  Vec2* above = ih + stride;
  Vec2* cur = above + stride;
  for (int j = 0; j < V; ++j) h[j] = Vec2{lanes.h[2 * j], lanes.h[2 * j + 1]};
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < V; ++j) {
      ih[i * V + j] = static_cast<double>(i) * h[j];
      above[i * V + j] = la * ih[i * V + j];
    }
  }

  // Sweep levels from (top-1) down to 0; level n has loss l_n, and lane s
  // joins at its own top level, levels[s]-1. The convolution against the
  // exponential first-block density is integrated exactly per grid
  // interval with g(x) = l*x + S_next(u-x) interpolated linearly, which
  // keeps STL' <= lambda_a*U for any lambda_block*h (see evaluator.h).
  LevelCoeffs<V> k;
  std::array<double, 2 * V> l{}, b{};
  for (int n = top - 1; n >= 0; --n) {
    for (int j = 0; j < V; ++j) {
      // A lane that has not joined runs the saturated level's fixed
      // point: l = λ_A, b = 0, hence r = 1 and no convolution.
      double r[2] = {1, 1};
      for (int s = 2 * j; s < 2 * j + 2; ++s) {
        if (lanes.levels[s] <= n) {
          l[s] = la;
          b[s] = 0;
          continue;
        }
        if (lanes.shares[s] == s) {
          l[s] = std::min(lanes.loss[s] + n * lnew, la);
          b[s] = ev.LambdaBlock(l[s]);
        } else {
          l[s] = l[lanes.shares[s]];
          b[s] = b[lanes.shares[s]];
        }
        r[s - 2 * j] = std::exp(-b[s] * lanes.h[s]);
      }
      const Vec2 rv = {r[0], r[1]};
      const Vec2 lv = {l[2 * j], l[2 * j + 1]};
      const Vec2 bv = {b[2 * j], b[2 * j + 1]};
      // Only lanes with b > 1e-12 convolve: the others get w = c = 0,
      // which zeroes every term lh multiplies too (and a harmless
      // divisor for c).
      const auto blocks = bv > 1e-12;
      const Vec2 zero = {0, 0};
      const Vec2 one = {1, 1};
      const Vec2 bh = blocks ? bv * h[j] : one;
      const Vec2 w = blocks ? one - rv : zero;
      // c = \int_0^h b*y*e^{-by} dy / h, normalized slope weight.
      const Vec2 c = blocks ? (one - rv * (one + bh)) / bh : zero;
      k.r[j] = rv;
      k.l[j] = lv;
      k.lh[j] = lv * h[j];
      k.w[j] = w;
      k.c[j] = c;
      k.w_minus_c[j] = w - c;
    }
    SweepLevel<V>(m, k, ih, above, cur);
    std::swap(above, cur);
  }
  for (int s = 0; s < lanes.count; ++s) {
    out[s] = above[(m - 1) * V + s / 2][s % 2];
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

  // A term that takes an early exit is answered here and gets no lane;
  // each other term gets the next lane. term_of[s] is lane s's term.
  Lanes lanes;
  std::array<std::size_t, kMaxLanes> term_of{};
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
    int levels = 0;
    if (lnew > 1e-12) {
      levels = static_cast<int>(
          std::min(std::ceil((la - lambda_loss) / lnew), 4096.0));
    }
    if (levels == 0) {
      out[k] = lambda_loss * u_seconds;
      continue;
    }
    const int s = lanes.count++;
    term_of[s] = k;
    lanes.levels[s] = levels;
    lanes.loss[s] = lambda_loss;
    lanes.h[s] = u_seconds / (grid_points_ - 1);
    lanes.shares[s] = s;
    for (int j = 0; j < s; ++j) {
      if (lanes.loss[j] == lambda_loss) {
        lanes.shares[s] = j;
        break;
      }
    }
  }

  std::array<double, kMaxLanes> swept{};
  switch ((lanes.count + 1) / 2) {
    case 0:
      return;
    case 1:
      SweepLanes<1>(*this, grid_points_, lanes, swept.data());
      break;
    case 2:
      SweepLanes<2>(*this, grid_points_, lanes, swept.data());
      break;
    default:
      SweepLanes<3>(*this, grid_points_, lanes, swept.data());
      break;
  }
  for (int s = 0; s < lanes.count; ++s) out[term_of[s]] = swept[s];
}

}  // namespace unicc
