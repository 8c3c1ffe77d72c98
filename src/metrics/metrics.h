// Run-level metrics: per-protocol transaction statistics (mean/percentile
// system time S, attempts, back-offs) and system-wide counters. This is the
// measurement layer behind every experiment table.
#ifndef UNICC_METRICS_METRICS_H_
#define UNICC_METRICS_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace unicc {

// Streaming mean/max plus retained samples for percentiles. The retained
// set is bounded: up to kMaxSamples values are kept exactly; beyond that,
// reservoir sampling (Vitter's algorithm R, with a fixed-seed generator so
// runs stay reproducible) keeps a uniform sample of the whole stream, so
// arbitrarily long open-system runs use O(1) memory per stat. Count, mean
// and max are always exact; percentiles are exact up to kMaxSamples values
// and a uniform-sample estimate after.
class DurationStat {
 public:
  // Retained-sample cap. Exact percentiles below it, reservoir above.
  static constexpr std::size_t kMaxSamples = 4096;

  void Add(Duration d);

  // Folds another stat into this one (e.g. pooling several runs' system
  // times). Count, sum and max stay exact; retained samples are
  // concatenated, so percentiles over the union keep every sample both
  // sides retained. Merging into a fresh stat is an exact copy.
  void Merge(const DurationStat& other);

  std::uint64_t count() const { return count_; }
  double MeanMs() const;
  double PercentileMs(double p) const;  // p in [0,100]
  double MaxMs() const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  Duration max_ = 0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;  // reservoir draws
  mutable std::vector<Duration> samples_;
  mutable bool sorted_ = true;
};

struct ProtocolStats {
  std::uint64_t committed = 0;
  std::uint64_t restarts = 0;       // total extra attempts
  std::uint64_t backoff_rounds = 0;
  DurationStat system_time;
};

class RunMetrics {
 public:
  void OnCommit(const TxnResult& r);
  void OnRestart(Protocol proto, TxnOutcome why);

  // Overload-control outcomes (engine admission gate).
  void OnShed() { ++shed_; }
  void OnExpired() { ++expired_; }
  void OnRetried() { ++retried_; }

  const ProtocolStats& ForProtocol(Protocol p) const {
    return per_proto_[static_cast<std::size_t>(p)];
  }
  ProtocolStats& ForProtocol(Protocol p) {
    return per_proto_[static_cast<std::size_t>(p)];
  }

  std::uint64_t total_committed() const { return total_committed_; }
  std::uint64_t deadlock_restarts() const { return deadlock_restarts_; }
  std::uint64_t reject_restarts() const { return reject_restarts_; }
  std::uint64_t timeout_restarts() const { return timeout_restarts_; }
  // Overload counters: transactions shed at the admission gate, expired
  // past their deadline, shed-then-re-submitted, and commits that met
  // their deadline (goodput; == total_committed when no class sets one).
  std::uint64_t shed() const { return shed_; }
  std::uint64_t expired() const { return expired_; }
  std::uint64_t retried() const { return retried_; }
  std::uint64_t goodput_committed() const { return goodput_committed_; }
  double MeanSystemTimeMs() const { return all_system_time_.MeanMs(); }
  const DurationStat& SystemTime() const { return all_system_time_; }

  // Throughput in committed transactions per simulated second.
  double ThroughputPerSec(SimTime elapsed) const;

 private:
  std::array<ProtocolStats, kNumProtocols> per_proto_{};
  DurationStat all_system_time_;
  std::uint64_t total_committed_ = 0;
  std::uint64_t deadlock_restarts_ = 0;
  std::uint64_t reject_restarts_ = 0;
  std::uint64_t timeout_restarts_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t goodput_committed_ = 0;
};

}  // namespace unicc

#endif  // UNICC_METRICS_METRICS_H_
