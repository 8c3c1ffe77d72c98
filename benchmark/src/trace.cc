#include "trace.h"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>

namespace unicc::bench {

namespace {

// Bucket of a latency: values below 4 ns get their own bucket; above, the
// top two bits below the most significant one pick one of four
// sub-buckets per power of two.
int BucketOf(std::int64_t ns) {
  if (ns < 4) return ns < 0 ? 0 : static_cast<int>(ns);
  const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(ns));
  const int sub = static_cast<int>((ns >> (msb - 2)) & 3);
  return msb * 4 + sub;
}

// Midpoint of a bucket, in nanoseconds.
double BucketMidNs(int idx) {
  if (idx < 4) return idx;
  const int msb = idx / 4;
  const int sub = idx % 4;
  return std::ldexp(4.5 + sub, msb - 2);
}

}  // namespace

double NowSeconds() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void CallStat::Add(std::int64_t ns) {
  ++count_;
  total_ns_ += ns;
  const int b = BucketOf(ns);
  ++hist_[static_cast<std::size_t>(b < kBuckets ? b : kBuckets - 1)];
}

double CallStat::PercentileUs(double p) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += hist_[static_cast<std::size_t>(i)];
    if (seen >= rank && seen > 0) return BucketMidNs(i) * 1e-3;
  }
  return BucketMidNs(kBuckets - 1) * 1e-3;
}

void TraceLog::AddAggregate(const std::string& name,
                            const std::string& workload, double at_s,
                            const CallStat& stat) {
  char buf[512];
  // Wrapped boundaries are leaves (nothing wrapped nests inside them), so
  // their self time equals their total.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"wrapped\",\"ph\":\"i\","
                "\"s\":\"p\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,"
                "\"args\":{\"workload\":\"%s\",\"count\":%llu,"
                "\"total_s\":%.9f,\"self_s\":%.9f,"
                "\"p50_us\":%.4f,\"p99_us\":%.4f}}",
                name.c_str(), static_cast<int>(getpid()), at_s * 1e6,
                workload.c_str(),
                static_cast<unsigned long long>(stat.count()), stat.total_s(),
                stat.total_s(), stat.PercentileUs(50), stat.PercentileUs(99));
  aggregates_.emplace_back(buf);
}

std::string TraceLog::EventsJson() const {
  std::string out;
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\","
                  "\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"workload\":\"%s\",\"cell\":%d}}",
                  out.empty() ? "" : ",\n", s.name.c_str(),
                  static_cast<int>(getpid()), s.start_s * 1e6, s.dur_s * 1e6,
                  s.workload.c_str(), s.cell);
    out += buf;
  }
  for (const std::string& a : aggregates_) {
    if (!out.empty()) out += ",\n";
    out += a;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::string& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n",
               events.c_str());
  return std::fclose(f) == 0;
}

}  // namespace unicc::bench
