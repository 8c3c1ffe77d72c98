// Measurement primitives of unicc_bench: a steady clock, per-boundary call
// statistics with a fixed log-scale latency histogram, and an in-memory
// span log written once, at exit, as Chrome trace-event JSON.
//
// Everything here sits outside the simulator: spans are taken around the
// calls the benchmark makes into each layer, never inside the layer.
#ifndef UNICC_BENCH_TRACE_H_
#define UNICC_BENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace unicc::bench {

using Clock = std::chrono::steady_clock;

// Seconds since the process's first call (the trace epoch).
double NowSeconds();

inline std::int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// Aggregate of one wrapped call boundary: call count, total time and a
// histogram with four buckets per power of two of nanoseconds, so
// percentiles cost O(1) memory however many calls are made.
class CallStat {
 public:
  void Add(std::int64_t ns);

  std::uint64_t count() const { return count_; }
  double total_s() const { return static_cast<double>(total_ns_) * 1e-9; }
  // Approximate percentile (p in [0, 100]) in microseconds, read from the
  // histogram (within one bucket, i.e. ~19%, of the exact value).
  double PercentileUs(double p) const;

 private:
  static constexpr int kBuckets = 4 * 48;

  std::uint64_t count_ = 0;
  std::int64_t total_ns_ = 0;
  std::array<std::uint64_t, kBuckets> hist_{};
};

// One timed interval, in seconds on the NowSeconds() clock.
struct Span {
  std::string name;
  std::string workload;
  int cell = 0;
  double start_s = 0;
  double dur_s = 0;
};

// Spans and per-boundary aggregates kept in memory until exit.
class TraceLog {
 public:
  void AddSpan(Span span) { spans_.push_back(std::move(span)); }
  // Records a wrapped boundary's aggregate as one instant event at `at_s`
  // (one event per boundary, not one per call).
  void AddAggregate(const std::string& name, const std::string& workload,
                    double at_s, const CallStat& stat);

  // The trace events as comma-separated JSON objects (no brackets), so
  // several processes' events can be concatenated into one file.
  std::string EventsJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> aggregates_;  // pre-rendered JSON objects
};

// Writes {"traceEvents": [<events>]} to `path`; false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::string& events);

}  // namespace unicc::bench

#endif  // UNICC_BENCH_TRACE_H_
