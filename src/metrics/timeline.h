// Windowed time-series metrics: commits, restarts and system-time
// statistics bucketed into fixed-length windows of simulated time, so a
// long (or phased) run is observable as a trajectory — per-window
// throughput, mean/p99 system time and per-protocol counts — instead of
// one end-of-run aggregate. This is the layer that makes the dynamic
// selector's re-adaptation across a phase boundary visible.
//
// Windows are half-open [k*W, (k+1)*W): an event exactly on a boundary
// belongs to the window the boundary opens. Memory is O(number of
// windows); per-window percentile samples are bounded by DurationStat's
// reservoir.
#ifndef UNICC_METRICS_TIMELINE_H_
#define UNICC_METRICS_TIMELINE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"
#include "metrics/metrics.h"
#include "txn/transaction.h"

namespace unicc {

class TimelineRecorder {
 public:
  // Hard cap on materialized windows: one corrupt or far-future event
  // time must not make At() allocate t/window_ empty windows. Events past
  // the cap are bucketed into the last window (and still move the
  // recorded end of run).
  static constexpr std::size_t kMaxWindows = 1 << 16;

  explicit TimelineRecorder(Duration window);

  // Buckets by r.commit. Event times must be nondecreasing overall only in
  // the sense that windows are created on demand; late events in an
  // earlier window are still counted there.
  void OnCommit(const TxnResult& r);
  void OnRestart(SimTime now, Protocol proto);
  // Overload-control outcomes, bucketed by when they happened.
  void OnShed(SimTime now);
  void OnExpired(SimTime now);

  struct WindowStats {
    SimTime start = 0;
    std::uint64_t committed = 0;
    // Commits that met their deadline (== committed when no deadlines).
    std::uint64_t goodput = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::array<std::uint64_t, kNumProtocols> committed_by_proto{};
    std::array<std::uint64_t, kNumProtocols> restarts_by_proto{};
    DurationStat system_time;
  };

  Duration window() const { return window_; }
  // Latest event time seen; the recorded end of run. The final window is
  // usually partial, so exports clamp its end (and throughput divisor) to
  // this instead of the full window length.
  SimTime end() const { return end_; }
  // Windows from t=0 through the last one that saw an event; interior
  // windows with no events are present (all-zero).
  std::size_t NumWindows() const { return windows_.size(); }
  const WindowStats& Window(std::size_t i) const { return windows_[i]; }
  // Exclusive end of window i: start + window length, clamped to the
  // recorded end of run for the final window.
  SimTime WindowEnd(std::size_t i) const;

  // Streaming writers: one row/object per window straight to the sink,
  // so exporting a long run never builds the whole document in memory.
  // One row per window. Columns:
  //   window,start_ms,end_ms,committed,throughput_tps,mean_s_ms,p99_s_ms,
  //   committed_2pl,committed_to,committed_pa,
  //   restarts_2pl,restarts_to,restarts_pa,goodput,shed,expired
  void WriteCsv(std::ostream& out) const;
  // {"window_ms": W, "windows": [{...}, ...]} with the same fields.
  void WriteJson(std::ostream& out) const;

  // In-memory convenience wrappers over the streaming writers.
  std::string ExportCsv() const;
  std::string ExportJson() const;

 private:
  WindowStats& At(SimTime t);

  Duration window_;
  SimTime end_ = 0;
  std::vector<WindowStats> windows_;
};

}  // namespace unicc

#endif  // UNICC_METRICS_TIMELINE_H_
