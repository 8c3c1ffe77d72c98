// Dynamic concurrency-control selection (paper, Section 5.2): each arriving
// transaction is assigned the protocol with the smallest estimated System
// Throughput Loss. Parameters come from the online ParamEstimator; STL
// values are cached per transaction class (bucketed by read/write counts)
// and refreshed periodically, as the paper suggests for speed.
#ifndef UNICC_SELECTOR_SELECTOR_H_
#define UNICC_SELECTOR_SELECTOR_H_

#include <array>
#include <cstdint>
#include <map>

#include "common/types.h"
#include "sim/simulator.h"
#include "stl/estimators.h"
#include "txn/transaction.h"

namespace unicc {

struct SelectorOptions {
  // The first `warmup_txns` transactions round-robin over the protocols so
  // the estimator observes all three before STL drives decisions.
  std::uint64_t warmup_txns = 60;
  // Cached class STL values are recomputed after this many selections.
  std::uint64_t refresh_every = 50;
};

class MinStlSelector {
 public:
  // DP grid resolution of every STL' evaluation.
  static constexpr int kStlGridPoints = 32;

  // `sim` provides elapsed time for throughput snapshots; `estimator` must
  // outlive the selector; `num_queues` is the number of physical copies.
  MinStlSelector(const Simulator* sim, const ParamEstimator* estimator,
                 std::size_t num_queues, SelectorOptions options = {});

  // Chooses the protocol for `spec`. The selector reads the clock of an
  // engine already built, so the engine's ProtocolPolicy reaches it
  // through a forwarding lambda (RunSession does this).
  Protocol Choose(const TxnSpec& spec);

  // Per-protocol selection counts (diagnostics).
  std::uint64_t selections(Protocol p) const {
    return selections_[static_cast<std::size_t>(p)];
  }

  // Current STL estimates for a class: one EstimateStl call, as a cache
  // refresh makes (diagnostics / tests).
  ClassStl EstimateFor(TxnShape shape) const;

 private:
  static std::uint64_t ClassKey(TxnShape shape);

  const Simulator* sim_;
  const ParamEstimator* estimator_;
  std::size_t num_queues_;
  SelectorOptions options_;

  std::uint64_t decided_ = 0;
  std::map<std::uint64_t, std::pair<Protocol, std::uint64_t>> cache_;
  std::array<std::uint64_t, kNumProtocols> selections_{};
};

// The strawman Section 5.1 argues against: pick the protocol with the
// smallest observed mean system time. The paper predicts it is biased
// toward 2PL, because a deadlocking 2PL transaction shortens its own
// system time while prolonging everyone else's — the cost its choice
// imposes on the system is invisible to this policy.
class MinAvgTimeSelector {
 public:
  explicit MinAvgTimeSelector(std::uint64_t warmup_txns = 60);

  // Feed commits so the per-protocol means track reality.
  void OnCommit(const TxnResult& r);

  Protocol Choose(const TxnSpec& spec);

  std::uint64_t selections(Protocol p) const {
    return selections_[static_cast<std::size_t>(p)];
  }

 private:
  std::uint64_t warmup_txns_;
  std::uint64_t decided_ = 0;
  std::array<double, kNumProtocols> sum_ms_{};
  std::array<std::uint64_t, kNumProtocols> count_{};
  std::array<std::uint64_t, kNumProtocols> selections_{};
};

}  // namespace unicc

#endif  // UNICC_SELECTOR_SELECTOR_H_
