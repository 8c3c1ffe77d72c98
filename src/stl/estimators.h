// Per-protocol STL estimators (Section 5.2) and the online parameter
// estimator that measures the quantities they consume:
//
//   2PL: U_2PL, U'_2PL, P_A (deadlock-abort probability per incarnation)
//   T/O: U_T/O, U'_T/O, P_r, P'_w (per-request reject probabilities)
//   PA : U_PA, U'_PA, P_B, P'_B (per-request back-off probabilities)
//
// plus system-wide λ_A, λ_r, λ_w, Q_r and K for the STL' evaluator.
#ifndef UNICC_STL_ESTIMATORS_H_
#define UNICC_STL_ESTIMATORS_H_

#include <array>
#include <cstdint>

#include "common/types.h"
#include "stl/evaluator.h"
#include "txn/transaction.h"

namespace unicc {

// Measured behaviour of one protocol.
struct ProtocolParams {
  double u_lock = 0.05;          // mean lock time, committed path (s)
  double u_lock_aborted = 0.02;  // mean lock time, aborted path (s)
  double p_abort = 0.0;          // 2PL: deadlock abort probability
  double p_reject_read = 0.0;    // T/O or PA: per-read reject/back-off prob.
  double p_reject_write = 0.0;   // T/O or PA: per-write prob.
};

// Transaction shape: m reads, n writes.
struct TxnShape {
  int m = 0;
  int n = 0;
};

// Expected throughput loss Λ_t of holding t's locks:
// Σ reads λ_w + Σ writes (λ_w + λ_r), using per-queue averages.
double LambdaT(const SystemParams& sys, TxnShape shape);

// Estimated STL of one transaction class under each protocol.
struct ClassStl {
  double stl_2pl = 0;
  double stl_to = 0;
  double stl_pa = 0;
};

// The three per-protocol estimators of Section 5.2, from one Sweep of
// their STL' terms: a success term per protocol, and its failure term
// unless that term's weight is exactly 0 (no 2PL deadlock aborts, or no
// T/O or PA negative responses), where the result is the same without
// it; `params` is indexed by Protocol.
//   2PL: geometric retry over deadlock aborts.
//   T/O: geometric retry over rejects, with the conditional loss Λ*_t
//        solved from the balance equation.
//   PA : at most one back-off (Lemma 1), hence non-recursive.
ClassStl EstimateStl(const StlEvaluator& ev, TxnShape shape,
                     const std::array<ProtocolParams, kNumProtocols>& params);

// Online measurement of SystemParams and ProtocolParams. Wire its On*
// methods into EngineCallbacks; snapshots are cheap.
//
// With SetDecayWindow(W > 0) the estimator becomes a sliding window:
// every accumulator fades by exp(-dt/W) as simulated time advances, so
// statistics older than a few W no longer weigh on the estimates and the
// STL model re-converges after a workload phase shift instead of
// averaging over the whole run. The decay clock is advanced lazily by
// Snapshot() (the selector calls it on every cache refresh); events are
// taken in at full weight and start fading from the next snapshot on.
// W = 0 (the default) disables decay: run-total averages, bit-identical
// to the pre-windowed behaviour.
class ParamEstimator {
 public:
  ParamEstimator() = default;

  // 0 disables decay. Set before the run; changing it mid-run only
  // affects subsequent decay steps.
  void SetDecayWindow(Duration window) { decay_window_ = window; }
  Duration decay_window() const { return decay_window_; }

  // --- event intake ----------------------------------------------------
  void OnRequestSent(Protocol proto, OpType op);
  void OnReject(OpType op, Protocol proto);
  void OnBackoffOffer(OpType op);
  void OnGrant(OpType op);
  void OnLockHold(Protocol proto, Duration held, bool aborted);
  void OnCommit(const TxnResult& r);
  void OnRestart(Protocol proto, TxnOutcome why);

  // --- snapshots --------------------------------------------------------
  // `elapsed` is total simulated time so far; `num_queues` the number of
  // physical copies (for per-queue throughput averages). Advances the
  // decay clock to `elapsed` when a decay window is set.
  SystemParams Snapshot(SimTime elapsed, std::size_t num_queues) const;
  ProtocolParams For(Protocol proto) const;

  // Exact run-total commit count; never decayed.
  std::uint64_t total_commits() const { return exact_commits_; }

 private:
  struct Mean {
    double sum = 0;
    double n = 0;
    void Add(double v) {
      sum += v;
      ++n;
    }
    void Decay(double f) {
      sum *= f;
      n *= f;
    }
    double Get(double fallback) const {
      return n <= 0 ? fallback : sum / n;
    }
  };

  static std::size_t Idx(Protocol p) { return static_cast<std::size_t>(p); }

  // Multiplies every accumulator by exp(-(now - decayed_to_)/window).
  // Lazily invoked from Snapshot(); mutable state, conceptually a cache
  // of "the statistics as seen from `now`".
  void DecayTo(SimTime now) const;

  Duration decay_window_ = 0;
  mutable SimTime decayed_to_ = 0;
  // Decayed observation time in simulated microseconds: the effective
  // length of the sliding window, W*(1 - exp(-T/W)) after T of run time.
  // Rate estimates divide by this instead of total elapsed time.
  mutable double weighted_us_ = 0;

  // Accumulators are doubles so they can fade; without decay they hold
  // exact integer counts (all well below 2^53).
  // Per protocol, per op type: requests sent / negative responses.
  mutable std::array<std::array<double, 2>, kNumProtocols> requests_{};
  mutable std::array<std::array<double, 2>, kNumProtocols> negatives_{};
  // Lock-time means per protocol x {committed, aborted}.
  mutable std::array<std::array<Mean, 2>, kNumProtocols> lock_time_{};
  // 2PL incarnations and deadlock aborts.
  mutable double incarnations_2pl_ = 0;
  mutable double deadlock_aborts_ = 0;
  // Grant throughput by op type.
  mutable std::array<double, 2> grants_{};
  // Request mix.
  mutable double read_requests_ = 0;
  mutable double write_requests_ = 0;
  // K estimation.
  mutable double commits_ = 0;
  mutable double committed_requests_ = 0;
  std::uint64_t exact_commits_ = 0;
};

}  // namespace unicc

#endif  // UNICC_STL_ESTIMATORS_H_
