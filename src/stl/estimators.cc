#include "stl/estimators.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"

namespace unicc {

namespace {

// Clamp probabilities away from 1 so geometric retries stay finite.
double ClampProb(double p) { return std::clamp(p, 0.0, 0.95); }

}  // namespace

double LambdaT(const SystemParams& sys, TxnShape shape) {
  return shape.m * sys.lambda_w +
         shape.n * (sys.lambda_w + sys.lambda_r);
}

ClassStl EstimateStl(const StlEvaluator& ev, TxnShape shape,
                     const std::array<ProtocolParams, kNumProtocols>& params) {
  const SystemParams& sys = ev.params();
  const double lt = LambdaT(sys, shape);
  const ProtocolParams& twopl =
      params[static_cast<std::size_t>(Protocol::kTwoPhaseLocking)];
  const ProtocolParams& to =
      params[static_cast<std::size_t>(Protocol::kTimestampOrdering)];
  const ProtocolParams& pa =
      params[static_cast<std::size_t>(Protocol::kPrecedenceAgreement)];
  // T/O and PA: ps, the probability that no request meets a reject
  // (back-off), and the loss of the attempt that met one, Λ*_t (Λ†_t)
  // from the balance equation: the expected per-request loss equals the
  // mixture over the rejected/accepted outcomes.
  struct Negative {
    double ps;
    double loss;
  };
  auto negative = [&](const ProtocolParams& p) {
    const double pr = ClampProb(p.p_reject_read);
    const double pw = ClampProb(p.p_reject_write);
    const double ps = std::pow(1 - pr, shape.m) * std::pow(1 - pw, shape.n);
    const double expected = shape.m * (1 - pr) * sys.lambda_w +
                            shape.n * (1 - pw) *
                                (sys.lambda_w + sys.lambda_r);
    double loss = lt;
    if (1 - ps > 1e-9) {
      loss = (expected - ps * lt) / (1 - ps);
      loss = std::clamp(loss, 0.0, sys.lambda_a);
    }
    return Negative{ps, loss};
  };
  const Negative to_neg = negative(to);
  const Negative pa_neg = negative(pa);
  const double p_abort = ClampProb(twopl.p_abort);
  const double ps_safe = std::max(to_neg.ps, 0.05);
  const std::array<StlTerm, 6> terms = {{
      {lt, twopl.u_lock},
      {lt, twopl.u_lock_aborted},
      {lt, to.u_lock},
      {to_neg.loss, to.u_lock_aborted},
      {lt, pa.u_lock},
      {pa_neg.loss, pa.u_lock_aborted},
  }};
  // Each failure term's weight in the formulas below. A term of weight
  // exactly 0 only adds +0 there (a swept STL' is finite and >= 0), so it
  // is not swept and reads as 0: 2PL without deadlock aborts, or T/O or
  // PA without negative responses, costs fewer lanes.
  const std::array<bool, 6> weighted = {
      true, p_abort != 0, true, 1 - ps_safe != 0, true, 1 - pa_neg.ps != 0};
  std::array<StlTerm, 6> swept_terms;
  std::array<std::size_t, 6> term_of{};
  std::size_t n = 0;
  for (std::size_t k = 0; k < terms.size(); ++k) {
    if (!weighted[k]) continue;
    swept_terms[n] = terms[k];
    term_of[n++] = k;
  }
  std::array<double, 6> swept{};
  ev.Sweep(std::span(swept_terms).first(n), std::span(swept).first(n));
  std::array<double, 6> stl{};
  for (std::size_t i = 0; i < n; ++i) stl[term_of[i]] = swept[i];

  ClassStl out;
  // STL = (1-PA)·STL'(Λt,U) + PA·(STL + STL'(Λt,U')); solve for STL.
  out.stl_2pl = ((1 - p_abort) * stl[0] + p_abort * stl[1]) / (1 - p_abort);
  // STL = ps·S'(Λt,U) + (1-ps)(S'(Λ*,U') + STL); solve for STL.
  out.stl_to = (ps_safe * stl[2] + (1 - ps_safe) * stl[3]) / ps_safe;
  // PA backs off at most once (Lemma 1): non-recursive mixture.
  out.stl_pa = pa_neg.ps * stl[4] + (1 - pa_neg.ps) * (stl[5] + stl[4]);
  return out;
}

void ParamEstimator::OnRequestSent(Protocol proto, OpType op) {
  ++requests_[Idx(proto)][static_cast<std::size_t>(op)];
  if (op == OpType::kRead) {
    ++read_requests_;
  } else {
    ++write_requests_;
  }
}

void ParamEstimator::OnReject(OpType op, Protocol proto) {
  ++negatives_[Idx(proto)][static_cast<std::size_t>(op)];
}

void ParamEstimator::OnBackoffOffer(OpType op) {
  ++negatives_[Idx(Protocol::kPrecedenceAgreement)]
              [static_cast<std::size_t>(op)];
}

void ParamEstimator::OnGrant(OpType op) {
  ++grants_[static_cast<std::size_t>(op)];
}

void ParamEstimator::OnLockHold(Protocol proto, Duration held, bool aborted) {
  lock_time_[Idx(proto)][aborted ? 1 : 0].Add(
      static_cast<double>(held) / static_cast<double>(kSecond));
}

void ParamEstimator::OnCommit(const TxnResult& r) {
  ++commits_;
  ++exact_commits_;
  committed_requests_ += static_cast<double>(r.num_requests);
  if (r.protocol == Protocol::kTwoPhaseLocking) {
    incarnations_2pl_ += r.attempts;
  }
}

void ParamEstimator::OnRestart(Protocol proto, TxnOutcome why) {
  if (proto == Protocol::kTwoPhaseLocking &&
      why == TxnOutcome::kRestartedByDeadlock) {
    ++deadlock_aborts_;
  }
}

void ParamEstimator::DecayTo(SimTime now) const {
  if (decay_window_ == 0 || now <= decayed_to_) return;
  const double w = static_cast<double>(decay_window_);
  const double dt = static_cast<double>(now - decayed_to_);
  const double f = std::exp(-dt / w);
  for (auto& per_op : requests_) {
    for (double& v : per_op) v *= f;
  }
  for (auto& per_op : negatives_) {
    for (double& v : per_op) v *= f;
  }
  for (auto& pair : lock_time_) {
    for (Mean& m : pair) m.Decay(f);
  }
  incarnations_2pl_ *= f;
  deadlock_aborts_ *= f;
  for (double& v : grants_) v *= f;
  read_requests_ *= f;
  write_requests_ *= f;
  commits_ *= f;
  committed_requests_ *= f;
  weighted_us_ = weighted_us_ * f + w * (1 - f);
  decayed_to_ = now;
}

SystemParams ParamEstimator::Snapshot(SimTime elapsed,
                                      std::size_t num_queues) const {
  DecayTo(elapsed);
  SystemParams sys;
  const double us = decay_window_ == 0 ? static_cast<double>(elapsed)
                                       : weighted_us_;
  const double secs =
      std::max(us / static_cast<double>(kSecond), 1e-6);
  const double nq = std::max<double>(1, static_cast<double>(num_queues));
  const double read_rate = grants_[0] / secs;
  const double write_rate = grants_[1] / secs;
  sys.lambda_r = read_rate / nq;
  sys.lambda_w = write_rate / nq;
  sys.lambda_a = std::max(read_rate + write_rate, 1e-3);
  const double total_reqs = read_requests_ + write_requests_;
  sys.q_r = total_reqs > 0 ? read_requests_ / total_reqs : 0.5;
  sys.k_avg = commits_ > 0
                  ? std::max(1.0, committed_requests_ / commits_)
                  : 4.0;
  return sys;
}

ProtocolParams ParamEstimator::For(Protocol proto) const {
  ProtocolParams p;
  const auto& lt = lock_time_[Idx(proto)];
  p.u_lock = lt[0].Get(0.05);
  p.u_lock_aborted = lt[1].Get(p.u_lock * 0.5);
  const auto& req = requests_[Idx(proto)];
  const auto& neg = negatives_[Idx(proto)];
  auto ratio = [](double num, double den) {
    return den <= 0 ? 0.0 : num / den;
  };
  if (proto == Protocol::kTwoPhaseLocking) {
    p.p_abort = incarnations_2pl_ <= 0
                    ? 0.0
                    : deadlock_aborts_ /
                          (incarnations_2pl_ + deadlock_aborts_);
  } else {
    p.p_reject_read = ratio(neg[0], req[0]);
    p.p_reject_write = ratio(neg[1], req[1]);
  }
  return p;
}

}  // namespace unicc
