#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace unicc {

void DurationStat::Add(Duration d) {
  ++count_;
  sum_ += static_cast<double>(d);
  max_ = std::max(max_, d);
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(d);
    sorted_ = false;
    return;
  }
  // Algorithm R: keep the new value with probability kMaxSamples/count_,
  // evicting a uniformly random retained sample. The replacement slot is
  // uniform over positions, so it stays uniform even after a percentile
  // query sorted the vector in place.
  rng_state_ += 0x9e3779b97f4a7c15ull;  // splitmix64
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t slot = z % count_;
  if (slot < kMaxSamples) {
    samples_[static_cast<std::size_t>(slot)] = d;
    sorted_ = false;
  }
}

void DurationStat::Merge(const DurationStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;  // exact copy, including the reservoir generator state
    return;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double DurationStat::MeanMs() const {
  if (count_ == 0) return 0;
  return sum_ / static_cast<double>(count_) / 1000.0;
}

double DurationStat::PercentileMs(double p) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - std::floor(rank);
  const double v = static_cast<double>(samples_[lo]) * (1 - frac) +
                   static_cast<double>(samples_[hi]) * frac;
  return v / 1000.0;
}

double DurationStat::MaxMs() const {
  return static_cast<double>(max_) / 1000.0;
}

void RunMetrics::OnCommit(const TxnResult& r) {
  ++total_committed_;
  if (r.MetDeadline()) ++goodput_committed_;
  all_system_time_.Add(r.SystemTime());
  ProtocolStats& ps = ForProtocol(r.protocol);
  ++ps.committed;
  ps.system_time.Add(r.SystemTime());
  ps.backoff_rounds += r.backoffs;
  ps.restarts += r.attempts - 1;
}

void RunMetrics::OnRestart(Protocol proto, TxnOutcome why) {
  (void)proto;
  if (why == TxnOutcome::kRestartedByReject) {
    ++reject_restarts_;
  } else if (why == TxnOutcome::kRestartedByDeadlock) {
    ++deadlock_restarts_;
  } else if (why == TxnOutcome::kRestartedByTimeout) {
    ++timeout_restarts_;
  }
}

double RunMetrics::ThroughputPerSec(SimTime elapsed) const {
  if (elapsed == 0) return 0;
  return static_cast<double>(total_committed_) /
         (static_cast<double>(elapsed) / static_cast<double>(kSecond));
}

}  // namespace unicc
