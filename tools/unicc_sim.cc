// unicc_sim: runs one scenario (docs/scenarios.md) to completion and
// prints a summary plus optional per-protocol and STL detail.
//
//   unicc_sim --scenario=scenarios/bursty.ini --verbose
//   unicc_sim --scenario=scenarios/quickstart.ini --set=engine.seed=7
//   unicc_sim --scenario=scenarios/quickstart.ini --record-trace=run.trace
//   unicc_sim --scenario=scenarios/quickstart.ini --replay-trace=run.trace
//   unicc_sim --scenario=scenarios/phase_shift.ini --timeline-csv=tl.csv
//   unicc_sim --scenario=scenarios/quickstart.ini --set=run.max_inflight=8
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "flags.h"
#include "runner/runner.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"
#include "stl/estimators.h"
#include "workload/stream.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace {

using namespace unicc;
using flags::ParseFlag;

struct Flags {
  std::string scenario;           // --scenario=FILE
  std::vector<std::string> sets;  // --set=SECTION.KEY=VALUE
  std::string record_trace;       // --record-trace=FILE
  std::string replay_trace;       // --replay-trace=FILE
  std::string export_csv;         // --export-csv=FILE
  std::string timeline_csv;       // --timeline-csv=FILE
  std::string timeline_json;      // --timeline-json=FILE
  bool verbose = false;
};

void PrintHelp() {
  std::puts(
      "unicc_sim: run one unified-concurrency-control scenario\n"
      "  --scenario=<file>   the scenario to run (required): engine, policy,\n"
      "                      workload and run controls (docs/scenarios.md)\n"
      "  --set=SECTION.KEY=VALUE  override one scenario key before\n"
      "                      validation (repeatable), e.g.\n"
      "                      --set=engine.seed=7, --set=fault.seed=7 or\n"
      "                      --set=run.window_ms=500; section names with\n"
      "                      spaces need shell quoting, e.g.\n"
      "                      --set='class main.rate=80'\n"
      "  --record-trace=<file>  write the workload as a trace: text when\n"
      "                      the name ends in .txt, else the streaming\n"
      "                      columnar UCTC v2 format\n"
      "  --replay-trace=<file>  read the workload from a recorded trace\n"
      "                      (text or UCTC v2, auto-detected) instead of\n"
      "                      the scenario's classes; the engine, policy and\n"
      "                      forced protocols still come from --scenario.\n"
      "                      v2 traces stream block-by-block into admission\n"
      "  --export-csv=<file>    write the workload as CSV for analysis\n"
      "  --timeline-csv=<file>  write windowed time-series metrics as CSV\n"
      "  --timeline-json=<file> write windowed time-series metrics as JSON;\n"
      "                      windows are [run] window_ms long, 1000 ms when\n"
      "                      the scenario sets none\n"
      "  --verbose           print per-protocol metrics and STL estimates\n"
      "  --help              print this list");
}

// Streams a timeline export straight to `path` (no whole-document string).
bool WriteTimeline(const std::string& path, const TimelineRecorder& tl,
                   bool json, const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open %s\n", what, path.c_str());
    return false;
  }
  if (json) {
    tl.WriteJson(out);
  } else {
    tl.WriteCsv(out);
  }
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "%s: write failed for %s\n", what, path.c_str());
    return false;
  }
  return true;
}

// Forwards to a stream the caller keeps alive.
class BorrowedStream final : public ArrivalStream {
 public:
  explicit BorrowedStream(ArrivalStream& inner) : inner_(inner) {}
  bool Next(Arrival* out) override { return inner_.Next(out); }

 private:
  ArrivalStream& inner_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0) {
      PrintHelp();
      return 0;
    } else if (std::strcmp(a, "--verbose") == 0) {
      flags.verbose = true;
    } else if (ParseFlag(a, "--set", &v)) {
      flags.sets.push_back(v);
    } else if (ParseFlag(a, "--scenario", &flags.scenario) ||
               ParseFlag(a, "--record-trace", &flags.record_trace) ||
               ParseFlag(a, "--replay-trace", &flags.replay_trace) ||
               ParseFlag(a, "--export-csv", &flags.export_csv) ||
               ParseFlag(a, "--timeline-csv", &flags.timeline_csv) ||
               ParseFlag(a, "--timeline-json", &flags.timeline_json)) {
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      return 2;
    }
  }
  if (flags.scenario.empty()) {
    std::fprintf(stderr, "--scenario=FILE is required (try --help)\n");
    return 2;
  }

  // The scenario, with the --set overrides applied before validation so a
  // bad override fails exactly like a bad file.
  auto loaded_ini = IniFile::ReadFile(flags.scenario);
  if (!loaded_ini.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.scenario.c_str(),
                 loaded_ini.status().ToString().c_str());
    return 2;
  }
  IniFile ini = std::move(loaded_ini).value();
  for (const std::string& s : flags.sets) {
    IniOverride o;
    if (!ParseIniOverride(s, &o)) {
      std::fprintf(stderr, "bad --set '%s' (expected SECTION.KEY=VALUE)\n",
                   s.c_str());
      return 2;
    }
    ini.Set(o.section, o.key, o.value);
  }
  auto loaded = ScenarioSpec::FromIni(ini);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.scenario.c_str(),
                 loaded.status().ToString().c_str());
    return 2;
  }
  ScenarioSpec spec = std::move(loaded).value();
  // A timeline export from a scenario without [run] window_ms uses 1 s
  // windows.
  if ((!flags.timeline_csv.empty() || !flags.timeline_json.empty()) &&
      spec.engine.metrics_window == 0) {
    spec.engine.metrics_window = 1000 * kMillisecond;
  }

  // The trace format follows from the file name: .txt records text,
  // anything else UCTC v2.
  const bool record_text = flags.record_trace.ends_with(".txt");

  // The workload: the scenario's own, or replayed from a trace.
  std::vector<Arrival> arrivals;
  std::shared_ptr<std::unordered_set<TxnId>> forced;
  // Owned here, not by the engine, which drops its stream once drained:
  // the decode status is read after the run.
  std::unique_ptr<TraceReader> replay_reader;
  const bool replay = !flags.replay_trace.empty();
  if (!replay) {
    // The session opens the workload itself. CSV export (and a text
    // recording) describe the workload definition, which [run] controls
    // may only partially admit; those still materialize it. A v2
    // recording streams the scenario into the writer below instead.
    if (!flags.export_csv.empty() ||
        (!flags.record_trace.empty() && record_text)) {
      arrivals = spec.BuildWorkload().arrivals;
    }
  } else {
    // A v2 trace replays as a stream feeding admission block-by-block.
    // Materialize only when something needs the whole schedule up front
    // (re-recording or exporting it) or the file is not v2: ReadFile takes
    // text too, and says why a file is neither.
    auto reader = TraceReader::Open(flags.replay_trace);
    if (reader.ok() && flags.record_trace.empty() && flags.export_csv.empty()) {
      replay_reader = std::move(reader).value();
    } else {
      auto trace = WorkloadTrace::ReadFile(flags.replay_trace);
      if (!trace.ok()) {
        std::fprintf(stderr, "%s: %s\n", flags.replay_trace.c_str(),
                     trace.status().ToString().c_str());
        return 2;
      }
      arrivals = std::move(*trace);
    }
    // The trace carries no class information; regenerate the scenario's
    // forced-protocol ids so replaying its own recording reproduces the
    // original run bit-for-bit (ids line up because generation is
    // deterministic in the seed).
    forced = spec.BuildWorkload().forced;
  }

  if (!flags.record_trace.empty()) {
    Status s;
    std::uint64_t recorded = arrivals.size();
    if (record_text) {
      s = WorkloadTrace::WriteFile(flags.record_trace, arrivals);
    } else if (!replay && flags.export_csv.empty()) {
      // v2 recording of the scenario's workload: stream its definition
      // straight into the block writer, O(one block) memory.
      auto writer = TraceWriter::Open(flags.record_trace);
      if (!writer.ok()) {
        s = writer.status();
      } else {
        ScenarioSpec::OpenWorkload ow = spec.Open();
        recorded = PumpStream(*ow.stream, [&](const Arrival& a) {
          if (s.ok()) s = (*writer)->Append(a);
        });
        if (s.ok()) s = (*writer)->Finish();
      }
    } else {
      s = WriteTraceV2File(flags.record_trace, arrivals);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "record-trace: %s\n", s.ToString().c_str());
      return 2;
    }
    std::printf("recorded %llu arrivals to %s\n",
                static_cast<unsigned long long>(recorded),
                flags.record_trace.c_str());
  }
  if (!flags.export_csv.empty()) {
    std::FILE* f = std::fopen(flags.export_csv.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "export-csv: cannot open %s\n",
                   flags.export_csv.c_str());
      return 2;
    }
    const std::string csv = WorkloadTrace::ExportCsv(arrivals);
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("exported %zu rows to %s\n", arrivals.size(),
                flags.export_csv.c_str());
  }

  runner::RunRequest request;
  request.spec = &spec;
  if (replay_reader != nullptr) {
    // Streaming v2 replay: the session pulls arrivals block-by-block.
    request.arrival_stream = std::make_unique<BorrowedStream>(*replay_reader);
  } else if (replay) {
    // A loaded trace, handed over verbatim.
    request.arrival_stream = MakeVectorStream(std::move(arrivals));
  }
  request.forced = forced;
  auto session_or = runner::RunSession::Create(std::move(request));
  if (!session_or.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 session_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<runner::RunSession> session = std::move(session_or).value();

  if (!spec.name.empty()) {
    std::printf("scenario           : %s%s%s\n", spec.name.c_str(),
                spec.description.empty() ? "" : " — ",
                spec.description.c_str());
  }
  const runner::RunReport run_report = session->Run();
  if (replay_reader != nullptr && !replay_reader->status().ok()) {
    // The stream ends silently on corrupt input; surface the decode error
    // instead of reporting a truncated run as a result.
    std::fprintf(stderr, "replay-trace: %s\n",
                 replay_reader->status().ToString().c_str());
    return 2;
  }
  const RunSummary& summary = run_report.summary;
  const runner::RunStats& stats = run_report.stats;

  if (!run_report.status.ok()) {
    // The run watchdog cancelled the run (the summary below describes the
    // partial run up to the cancellation point), or a drained run broke an
    // accounting identity.
    std::fprintf(stderr, "run status: %s\n",
                 run_report.status.ToString().c_str());
  }
  std::printf("committed          : %llu/%llu\n",
              static_cast<unsigned long long>(summary.committed),
              static_cast<unsigned long long>(summary.admitted));
  if (stats.shed != 0 || stats.expired != 0 || stats.retried != 0 ||
      spec.engine.run.shed_policy != ShedPolicy::kBlock) {
    std::printf("overload           : %llu shed, %llu expired, %llu "
                "retried, %llu goodput\n",
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.expired),
                static_cast<unsigned long long>(stats.retried),
                static_cast<unsigned long long>(stats.goodput));
  }
  std::printf("mean system time   : %.2f ms (p95 %.2f, max %.2f)\n",
              session->metrics().MeanSystemTimeMs(),
              session->metrics().SystemTime().PercentileMs(95),
              session->metrics().SystemTime().MaxMs());
  std::printf("throughput         : %.1f tx/s over %.2f s simulated\n",
              session->metrics().ThroughputPerSec(summary.makespan),
              static_cast<double>(summary.makespan) / kSecond);
  std::printf("deadlock victims   : %llu\n",
              static_cast<unsigned long long>(summary.deadlock_victims));
  std::printf("T/O reject restarts: %llu\n",
              static_cast<unsigned long long>(summary.reject_restarts));
  std::printf("PA back-off rounds : %llu\n",
              static_cast<unsigned long long>(summary.backoff_rounds));
  std::printf("messages           : %llu total, %llu remote\n",
              static_cast<unsigned long long>(summary.total_messages),
              static_cast<unsigned long long>(summary.remote_messages));
  std::printf("serializable       : %s\n",
              stats.serializable ? "yes" : "NO");
  std::printf("replicas consistent: %s\n",
              stats.replicas_consistent ? "yes" : "NO");
  // stderr: the record/replay CI check diffs stdout, and the peak RSS and
  // wall-clock phases of two separate processes legitimately differ.
  if (stats.peak_rss_kb != 0) {
    std::fprintf(stderr, "peak rss           : %llu KB\n",
                 static_cast<unsigned long long>(stats.peak_rss_kb));
  }
  std::fprintf(stderr,
               "wall clock         : setup %.3f s, simulate %.3f s, "
               "verify %.3f s\n",
               run_report.setup_s, run_report.simulate_s, run_report.verify_s);

  if (const TimelineRecorder* tl = session->timeline(); tl != nullptr) {
    if (!flags.timeline_csv.empty()) {
      if (!WriteTimeline(flags.timeline_csv, *tl, /*json=*/false,
                         "timeline-csv")) {
        return 2;
      }
      std::printf("timeline           : %zu windows of %.0f ms -> %s\n",
                  tl->NumWindows(),
                  static_cast<double>(tl->window()) / kMillisecond,
                  flags.timeline_csv.c_str());
    }
    if (!flags.timeline_json.empty()) {
      if (!WriteTimeline(flags.timeline_json, *tl, /*json=*/true,
                         "timeline-json")) {
        return 2;
      }
      std::printf("timeline           : %zu windows of %.0f ms -> %s\n",
                  tl->NumWindows(),
                  static_cast<double>(tl->window()) / kMillisecond,
                  flags.timeline_json.c_str());
    }
  }

  if (flags.verbose) {
    std::printf("\nper-protocol:\n");
    for (Protocol p :
         {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
          Protocol::kPrecedenceAgreement}) {
      const auto& ps = session->metrics().ForProtocol(p);
      std::printf("  %-4s committed %llu, mean S %.2f ms, restarts %llu\n",
                  std::string(ProtocolName(p)).c_str(),
                  static_cast<unsigned long long>(ps.committed),
                  ps.system_time.MeanMs(),
                  static_cast<unsigned long long>(ps.restarts));
    }
    const SystemParams sys = session->estimator().Snapshot(
        session->engine()->simulator().Now(), spec.engine.num_items);
    std::printf(
        "\nmeasured system parameters: lambda_A=%.1f/s lambda_r=%.3f "
        "lambda_w=%.3f Q_r=%.2f K=%.1f\n",
        sys.lambda_a, sys.lambda_r, sys.lambda_w, sys.q_r, sys.k_avg);
  }
  if (!run_report.status.ok()) return 3;  // cancelled, or accounting broke
  return stats.serializable ? 0 : 1;
}
