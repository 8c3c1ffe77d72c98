// The System Throughput Loss estimator STL'(λ_loss, U) of Section 5.1,
// evaluated by dynamic programming as the paper prescribes.
//
// Model: while a transaction holds its locks for U time units it removes
// λ_loss of throughput. Lock grants elsewhere arrive at rate λ_A − λ_loss;
// each such grant belongs to a transaction whose other K−1 requests are
// each blocked with probability λ_loss/λ_A, so new blocking grants arrive
// at rate
//     λ_block = (λ_A − λ_loss)·(1 − (1 − λ_loss/λ_A)^{K−1}),
// and each one adds λ_new = λ_w + (1−Q_r)·λ_r of further loss. The loss
// over a window of length U then satisfies the renewal equation
//     STL'(l, U) = e^{−λ_block·U}·l·U
//                + ∫₀ᵁ λ_block·e^{−λ_block·x}·(l·x + STL'(l+λ_new, U−x)) dx,
// with STL'(l, U) = λ_A·U once l ≥ λ_A (the whole system is blocked).
//
// The DP discretizes U on m grid points x_i = i·h and sweeps loss levels
// downward from the saturated level, convolving each level against the
// level above it (`above`). Per grid interval the integrand is linear and
// integrated exactly against the first-block density. On the uniform grid
// those weights are geometric, e^{−b·x_j} = r^j with b = λ_block,
// r = e^{−b·h} and w = 1 − r, so with lh = l·h and the slope weight
// c = (1 − r·(1 + b·h))/(b·h) the value at grid point i is
//     v_i = r^i·l·x_i + T_i + (w − c)·P_i + c·P_{i−1},
//     P_i = above[i] + r·P_{i−1},
//     T_i = T_{i−1} + lh·r^{i−1}·(w·(i−1) + c),
// with P_0 = T_0 = 0 (above[0] is 0 at every level). A level costs one
// `exp`, one `pow` and O(m) flops, so a term is O(levels·m) with levels
// capped at 4096. This is the term-by-term O(m²) quadrature summed in a
// different order: results agree with it to within 1e-12 relative, not
// bit for bit (tests/stl/stl_test.cc checks it against a copy of the
// direct sum).
//
// Lockstep sweep. `Sweep` evaluates up to six (λ_loss, U) terms in one
// pass; a selector refresh passes its three success terms and those of
// its three failure terms whose weight is not zero (EstimateStl). A term
// that takes an early exit (U = 0, λ_loss ≥ λ_A, or no levels) is answered
// at once and gets no lane. The others get lanes in term order, packed two
// to a 16-byte vector (lanes 2j and 2j+1 in vector j), so L lanes sweep in
// ⌈L/2⌉ vectors. Each lane has its own level count and joins the downward
// sweep at its own top level: at sweep level n every lane with more than
// n levels computes its level n, so all lanes reach level 0 together.
// Each level's coefficient vectors are built a lane pair at a time. Lanes
// with the same start loss have the same l at every level and share one
// LambdaBlock (`pow`); each lane computes its own r = e^{−b·h} (`exp`),
// since h depends on its U. The grid recurrences of the vectors advance
// side by side, one grid point at a time, so the loop is bound by
// arithmetic throughput rather than by the latency of the P_i chain. A
// lane that has not joined yet, and the spare lane that fills an odd L's
// last vector, runs the saturated level's fixed point (l = λ_A, b = 0,
// hence r = 1), which reproduces λ_A·x_i exactly. A lane whose b is at
// most 1e-12 runs with w and c zeroed, so the convolution term it adds is
// exactly +0.
//
// Bit-identity condition: every lane performs the scalar recurrence's
// operations above in the same order and association, each lane-wise
// vector operation is the IEEE operation on that lane, and nothing is
// contracted into a fused multiply-add. The last holds for any -march:
// the build passes -ffp-contract=off to every target (unicc_options in
// the root CMakeLists.txt), since GCC otherwise fuses a*b+c on a target
// with FMA (x86-64-v3, -march=native), even under -std=c++20. Under that
// condition a lane's result equals the one-term scalar DP bit for bit,
// whichever lanes share its sweep and whichever lane it has, so every STL
// value, selection and digest is what the scalar DP gave;
// tests/stl/stl_test.cc checks it against a frozen copy of that DP.
// λ_loss must be non-negative, which keeps the no-block value r^i·l·x_i
// from being −0, so adding +0 to it changes no bit.
#ifndef UNICC_STL_EVALUATOR_H_
#define UNICC_STL_EVALUATOR_H_

#include <cstdint>
#include <span>

namespace unicc {

// System-wide parameters feeding the STL model (rates per second).
struct SystemParams {
  double lambda_a = 100.0;  // total system throughput λ_A
  double lambda_r = 0.5;    // mean per-queue read throughput
  double lambda_w = 0.5;    // mean per-queue write throughput
  double q_r = 0.5;         // fraction of read requests
  double k_avg = 4.0;       // mean requests per transaction K
};

// One STL'(λ_loss, U) term: the loss caused over a lock hold of
// `u_seconds` starting from initial loss `lambda_loss` (per second).
struct StlTerm {
  double lambda_loss = 0;
  double u_seconds = 0;
};

class StlEvaluator {
 public:
  // Terms one Sweep evaluates side by side.
  static constexpr int kMaxLanes = 6;

  // `grid_points` controls DP resolution (>= 2).
  StlEvaluator(SystemParams params, int grid_points);

  // STL'(λ_loss, U) for one term: a one-lane Sweep. Returns loss in units
  // of (throughput · seconds), i.e. expected number of lost grants.
  double Evaluate(double lambda_loss, double u_seconds) const;

  // Evaluates up to kMaxLanes terms in one lockstep sweep (see above);
  // out[k] = STL'(terms[k]). `out` must have one slot per term.
  void Sweep(std::span<const StlTerm> terms, std::span<double> out) const;

  // λ_new = λ_w + (1 − Q_r)·λ_r (the expected extra loss per new block).
  double LambdaNew() const;

  // λ_block for a given current loss level.
  double LambdaBlock(double lambda_loss) const;

  const SystemParams& params() const { return params_; }

 private:
  SystemParams params_;
  int grid_points_;
};

}  // namespace unicc

#endif  // UNICC_STL_EVALUATOR_H_
