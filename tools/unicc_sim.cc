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
// Every trace and CSV file streams: a recording, an export and the run
// each pull their own opening of the workload. Run with --help for the
// full flag list.
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
      "                      the name ends in .txt, else the columnar\n"
      "                      UCTC v2 format\n"
      "  --replay-trace=<file>  read the workload from a recorded trace\n"
      "                      (text or UCTC v2, auto-detected) instead of\n"
      "                      the scenario's classes; the engine, policy and\n"
      "                      forced protocols still come from --scenario.\n"
      "                      A trace that does not decode, or does not fit\n"
      "                      the scenario's sites and items, exits 2\n"
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

// Prints `what: status` to stderr; returns the exit code for bad input.
int Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), s.ToString().c_str());
  return 2;
}

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
  if (!loaded_ini.ok()) return Fail(flags.scenario, loaded_ini.status());
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
  if (!loaded.ok()) return Fail(flags.scenario, loaded.status());
  ScenarioSpec spec = std::move(loaded).value();
  // A timeline export from a scenario without [run] window_ms uses 1 s
  // windows.
  if ((!flags.timeline_csv.empty() || !flags.timeline_json.empty()) &&
      spec.engine.metrics_window == 0) {
    spec.engine.metrics_window = 1000 * kMillisecond;
  }

  // The workload is the scenario's own, or a recorded trace. Each writer
  // and the run stream a fresh opening of it, so none holds more than
  // what is in flight.
  const bool replay = !flags.replay_trace.empty();
  const std::string& source = replay ? flags.replay_trace : flags.scenario;
  auto open_workload = [&]() -> StatusOr<std::unique_ptr<ArrivalStream>> {
    if (replay) return OpenTraceReader(flags.replay_trace);
    return spec.Open().stream;
  };
  struct Output {
    const std::string& path;
    const char* flag;
    StatusOr<std::unique_ptr<ArrivalSink>> (*open)(const std::string&);
    const char* done;
  };
  for (const Output& out :
       {Output{flags.record_trace, "record-trace", OpenTraceWriter,
               "recorded %llu arrivals to %s\n"},
        Output{flags.export_csv, "export-csv", OpenCsvExport,
               "exported %llu rows to %s\n"}}) {
    if (out.path.empty()) continue;
    auto from = open_workload();
    if (!from.ok()) return Fail(source, from.status());
    auto to = out.open(out.path);
    if (!to.ok()) return Fail(out.flag, to.status());
    Status s;
    const std::uint64_t n = PumpStream(**from, [&](const Arrival& a) {
      if (s.ok()) s = (*to)->Append(a);
    });
    if (Status read = (*from)->status(); !read.ok()) return Fail(source, read);
    if (s.ok()) s = (*to)->Finish();
    if (!s.ok()) return Fail(out.flag, s);
    std::printf(out.done, static_cast<unsigned long long>(n), out.path.c_str());
  }

  runner::RunRequest request;
  request.spec = &spec;
  if (replay) {
    auto trace = open_workload();
    if (!trace.ok()) return Fail(source, trace.status());
    request.arrival_stream = std::move(trace).value();
    // The trace carries no class information: pump the scenario's own
    // stream, keeping none of its arrivals, for its forced-protocol ids.
    // They line up with the recording's, as generation is deterministic
    // in the seed, so a replay of the scenario's own trace is the run.
    ScenarioSpec::OpenWorkload ow = spec.Open();
    PumpStream(*ow.stream, [](const Arrival&) {});
    request.forced = std::move(ow.forced);
  }
  auto session_or = runner::RunSession::Create(std::move(request));
  if (!session_or.ok()) {
    return Fail("invalid configuration", session_or.status());
  }
  std::unique_ptr<runner::RunSession> session = std::move(session_or).value();

  if (!spec.name.empty()) {
    std::printf("scenario           : %s%s%s\n", spec.name.c_str(),
                spec.description.empty() ? "" : " — ",
                spec.description.c_str());
  }
  const runner::RunReport run_report = session->Run();
  if (run_report.status.code() == StatusCode::kInvalidArgument) {
    // The workload failed: a trace that does not decode, or an arrival
    // that does not fit the scenario's cluster. No result is reported.
    return Fail(source, run_report.status);
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
