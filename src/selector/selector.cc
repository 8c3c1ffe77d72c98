#include "selector/selector.h"

#include <limits>
#include <utility>

#include "common/check.h"

namespace unicc {

MinStlSelector::MinStlSelector(const Simulator* sim,
                               const ParamEstimator* estimator,
                               std::size_t num_queues,
                               SelectorOptions options)
    : sim_(sim),
      estimator_(estimator),
      num_queues_(num_queues),
      options_(options) {
  UNICC_CHECK(sim_ != nullptr && estimator_ != nullptr);
}

std::uint64_t MinStlSelector::ClassKey(TxnShape shape) {
  return (static_cast<std::uint64_t>(shape.m) << 16) |
         static_cast<std::uint64_t>(shape.n);
}

ClassStl MinStlSelector::EstimateFor(TxnShape shape) const {
  const StlEvaluator ev(estimator_->Snapshot(sim_->Now(), num_queues_),
                        kStlGridPoints);
  return EstimateStl(ev, shape,
                     {estimator_->For(Protocol::kTwoPhaseLocking),
                      estimator_->For(Protocol::kTimestampOrdering),
                      estimator_->For(Protocol::kPrecedenceAgreement)});
}

Protocol MinStlSelector::Choose(const TxnSpec& spec) {
  const std::uint64_t i = decided_++;
  Protocol chosen;
  if (i < options_.warmup_txns) {
    chosen = static_cast<Protocol>(i % kNumProtocols);
  } else {
    const TxnShape shape{static_cast<int>(spec.read_set.size()),
                         static_cast<int>(spec.write_set.size())};
    const std::uint64_t key = ClassKey(shape);
    auto it = cache_.find(key);
    if (it == cache_.end() ||
        i - it->second.second >= options_.refresh_every) {
      const ClassStl stl = EstimateFor(shape);
      Protocol best = Protocol::kTwoPhaseLocking;
      double best_v = stl.stl_2pl;
      if (stl.stl_to < best_v) {
        best = Protocol::kTimestampOrdering;
        best_v = stl.stl_to;
      }
      if (stl.stl_pa < best_v) {
        best = Protocol::kPrecedenceAgreement;
      }
      it = cache_.insert_or_assign(key, std::make_pair(best, i)).first;
    }
    chosen = it->second.first;
  }
  ++selections_[static_cast<std::size_t>(chosen)];
  return chosen;
}

MinAvgTimeSelector::MinAvgTimeSelector(std::uint64_t warmup_txns)
    : warmup_txns_(warmup_txns) {}

void MinAvgTimeSelector::OnCommit(const TxnResult& r) {
  const auto i = static_cast<std::size_t>(r.protocol);
  sum_ms_[i] += static_cast<double>(r.SystemTime()) / kMillisecond;
  ++count_[i];
}

Protocol MinAvgTimeSelector::Choose(const TxnSpec& spec) {
  (void)spec;
  const std::uint64_t i = decided_++;
  Protocol chosen;
  if (i < warmup_txns_) {
    chosen = static_cast<Protocol>(i % kNumProtocols);
  } else {
    chosen = Protocol::kTwoPhaseLocking;
    double best = std::numeric_limits<double>::infinity();
    for (int p = 0; p < kNumProtocols; ++p) {
      if (count_[p] == 0) continue;
      const double mean = sum_ms_[p] / static_cast<double>(count_[p]);
      if (mean < best) {
        best = mean;
        chosen = static_cast<Protocol>(p);
      }
    }
  }
  ++selections_[static_cast<std::size_t>(chosen)];
  return chosen;
}

}  // namespace unicc
