#include "metrics/timeline.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace unicc {

TimelineRecorder::TimelineRecorder(Duration window) : window_(window) {
  UNICC_CHECK_MSG(window_ > 0, "timeline window must be positive");
}

TimelineRecorder::WindowStats& TimelineRecorder::At(SimTime t) {
  end_ = std::max(end_, t);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(t / window_), kMaxWindows - 1);
  while (windows_.size() <= idx) {
    WindowStats w;
    w.start = static_cast<SimTime>(windows_.size()) * window_;
    windows_.push_back(std::move(w));
  }
  return windows_[idx];
}

void TimelineRecorder::OnCommit(const TxnResult& r) {
  WindowStats& w = At(r.commit);
  ++w.committed;
  if (r.MetDeadline()) ++w.goodput;
  ++w.committed_by_proto[static_cast<std::size_t>(r.protocol)];
  w.system_time.Add(r.SystemTime());
}

void TimelineRecorder::OnRestart(SimTime now, Protocol proto) {
  ++At(now).restarts_by_proto[static_cast<std::size_t>(proto)];
}

void TimelineRecorder::OnShed(SimTime now) { ++At(now).shed; }

void TimelineRecorder::OnExpired(SimTime now) { ++At(now).expired; }

SimTime TimelineRecorder::WindowEnd(std::size_t i) const {
  const SimTime full = windows_[i].start + window_;
  if (i + 1 < windows_.size()) return full;
  // Final window: clamp to the recorded end of run, so a run finishing
  // mid-window doesn't report an end past the last event — but never to
  // an empty interval (an event at exactly the window start still spans
  // one microsecond).
  return std::min(full, std::max(end_, windows_[i].start + 1));
}

void TimelineRecorder::WriteCsv(std::ostream& out) const {
  out << "window,start_ms,end_ms,committed,throughput_tps,mean_s_ms,p99_s_ms,"
         "committed_2pl,committed_to,committed_pa,"
         "restarts_2pl,restarts_to,restarts_pa,goodput,shed,expired\n";
  char buf[320];
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const WindowStats& w = windows_[i];
    const SimTime end = WindowEnd(i);
    // Divide throughput by the window's *actual* span: the final partial
    // window must not have its commits spread over time that never ran.
    const double span_sec =
        static_cast<double>(end - w.start) / static_cast<double>(kSecond);
    std::snprintf(
        buf, sizeof(buf),
        "%zu,%.3f,%.3f,%llu,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu\n",
        i, static_cast<double>(w.start) / kMillisecond,
        static_cast<double>(end) / kMillisecond,
        static_cast<unsigned long long>(w.committed),
        static_cast<double>(w.committed) / span_sec,
        w.system_time.MeanMs(), w.system_time.PercentileMs(99),
        static_cast<unsigned long long>(w.committed_by_proto[0]),
        static_cast<unsigned long long>(w.committed_by_proto[1]),
        static_cast<unsigned long long>(w.committed_by_proto[2]),
        static_cast<unsigned long long>(w.restarts_by_proto[0]),
        static_cast<unsigned long long>(w.restarts_by_proto[1]),
        static_cast<unsigned long long>(w.restarts_by_proto[2]),
        static_cast<unsigned long long>(w.goodput),
        static_cast<unsigned long long>(w.shed),
        static_cast<unsigned long long>(w.expired));
    out << buf;
  }
}

void TimelineRecorder::WriteJson(std::ostream& out) const {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "{\n  \"window_ms\": %.3f",
                static_cast<double>(window_) / kMillisecond);
  out << buf;
  out << ",\n  \"windows\": [\n";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const WindowStats& w = windows_[i];
    const SimTime end = WindowEnd(i);
    const double span_sec =
        static_cast<double>(end - w.start) / static_cast<double>(kSecond);
    std::snprintf(
        buf, sizeof(buf),
        "    {\"window\": %zu, \"start_ms\": %.3f, \"end_ms\": %.3f, "
        "\"committed\": %llu, "
        "\"throughput_tps\": %.3f, \"mean_s_ms\": %.3f, \"p99_s_ms\": %.3f, ",
        i, static_cast<double>(w.start) / kMillisecond,
        static_cast<double>(end) / kMillisecond,
        static_cast<unsigned long long>(w.committed),
        static_cast<double>(w.committed) / span_sec,
        w.system_time.MeanMs(), w.system_time.PercentileMs(99));
    out << buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"goodput\": %llu, \"shed\": %llu, \"expired\": %llu, "
        "\"committed_by_protocol\": [%llu, %llu, %llu], "
        "\"restarts_by_protocol\": [%llu, %llu, %llu]}%s\n",
        static_cast<unsigned long long>(w.goodput),
        static_cast<unsigned long long>(w.shed),
        static_cast<unsigned long long>(w.expired),
        static_cast<unsigned long long>(w.committed_by_proto[0]),
        static_cast<unsigned long long>(w.committed_by_proto[1]),
        static_cast<unsigned long long>(w.committed_by_proto[2]),
        static_cast<unsigned long long>(w.restarts_by_proto[0]),
        static_cast<unsigned long long>(w.restarts_by_proto[1]),
        static_cast<unsigned long long>(w.restarts_by_proto[2]),
        i + 1 == windows_.size() ? "" : ",");
    out << buf;
  }
  out << "  ]\n}\n";
}

std::string TimelineRecorder::ExportCsv() const {
  std::ostringstream out;
  WriteCsv(out);
  return out.str();
}

std::string TimelineRecorder::ExportJson() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

}  // namespace unicc
