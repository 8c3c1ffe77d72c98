// unicc_sim: command-line driver for arbitrary engine/workload
// configurations. Runs one simulation to completion and prints a summary
// plus optional queue/metric detail.
//
//   unicc_sim --protocol=pa --lambda=80 --txns=500 --items=60 --seed=7
//   unicc_sim --policy=minstl --lambda=120 --read-fraction=0.3 --verbose
//   unicc_sim --scenario=scenarios/bursty.ini --verbose
//   unicc_sim --scenario=scenarios/quickstart.ini --record-trace=run.trace
//   unicc_sim --replay-trace=run.trace --policy=trace
//   unicc_sim --scenario=scenarios/phase_shift.ini --timeline-csv=tl.csv
//   unicc_sim --scenario=scenarios/quickstart.ini --set=run.max_inflight=8
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
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
#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace {

using namespace unicc;
using flags::ParseFlag;
using flags::ParseMsFlag;
using flags::ParseNumberFlag;

struct Flags {
  std::string policy = "fixed";  // fixed | mix | minstl | minavg | trace
  std::string protocol = "2pl";  // for --policy=fixed
  double lambda = 40;
  std::uint64_t txns = 500;
  ItemId items = 60;
  std::uint32_t user_sites = 4;
  std::uint32_t data_sites = 4;
  std::uint32_t replication = 1;
  std::uint32_t size_min = 4;
  std::uint32_t size_max = 4;
  double read_fraction = 0.5;
  double zipf = 0.0;
  Duration delay = 5 * kMillisecond;
  Duration jitter = 2 * kMillisecond;
  Duration compute = 5 * kMillisecond;
  Duration skew = 50 * kMillisecond;
  std::string detector = "central";  // central | none
  bool semi_locks = true;
  std::uint64_t seed = 42;
  bool seed_set = false;
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  bool verbose = false;
  std::string scenario;      // --scenario=FILE
  std::string record_trace;  // --record-trace=FILE
  std::string replay_trace;  // --replay-trace=FILE
  std::string export_csv;    // --export-csv=FILE
  std::vector<std::string> sets;  // --set=SECTION.KEY=VALUE
  std::string timeline_csv;   // --timeline-csv=FILE
  std::string timeline_json;  // --timeline-json=FILE
  Duration window = 0;        // --window-ms
  bool window_set = false;    // unset keeps the scenario's window
};

void PrintHelp() {
  std::puts(
      "unicc_sim: run one unified-concurrency-control simulation\n"
      "  --scenario=<file>   load engine, policy and workload from a\n"
      "                      declarative scenario file (see\n"
      "                      docs/scenarios.md); overrides every workload/\n"
      "                      engine flag below except --seed\n"
      "  --set=SECTION.KEY=VALUE  override one scenario key before\n"
      "                      validation (repeatable; section names with\n"
      "                      spaces need shell quoting, e.g.\n"
      "                      --set='class main.rate=80'); needs --scenario\n"
      "  --policy=fixed|mix|minstl|minavg|trace  protocol policy (fixed);\n"
      "                      'trace' uses each transaction's recorded\n"
      "                      protocol verbatim\n"
      "  --protocol=2pl|to|pa               protocol for --policy=fixed\n"
      "  --lambda=<tx/s>     arrival rate (40)\n"
      "  --txns=<n>          transactions (500)\n"
      "  --items=<n>         logical items (60)\n"
      "  --user-sites=<n>    user sites (4)\n"
      "  --data-sites=<n>    data sites (4)\n"
      "  --replication=<n>   copies per item (1)\n"
      "  --size-min/max=<n>  items per transaction (4/4)\n"
      "  --read-fraction=<f> fraction of reads (0.5)\n"
      "  --zipf=<theta>      item popularity skew (0)\n"
      "  --delay-ms=<f>      one-way network delay (5)\n"
      "  --jitter-ms=<f>     exponential jitter mean (2)\n"
      "  --compute-ms=<f>    local compute phase (5)\n"
      "  --skew-ms=<f>       max site clock skew (50)\n"
      "  --detector=central|none            deadlock detection (central)\n"
      "  --no-semi-locks     lock-everything ablation\n"
      "  --pure              pure per-protocol backend (needs fixed policy)\n"
      "  --seed=<n>          RNG seed (42); also overrides the scenario's\n"
      "                      [engine] seed\n"
      "  --fault-seed=<n>    seed of the [fault]/[topology] schedule;\n"
      "                      overrides the scenario's [fault] seed (0\n"
      "                      re-derives one from the engine seed). A fixed\n"
      "                      value replays the same loss/duplication/\n"
      "                      reorder schedule bit-for-bit\n"
      "  --record-trace=<file>  write the workload as a trace: text when\n"
      "                      the name ends in .txt, else the streaming\n"
      "                      columnar UCTC v2 format\n"
      "  --replay-trace=<file>  read the workload from a recorded trace\n"
      "                      (text or UCTC v2, auto-detected) instead of\n"
      "                      generating it; v2 traces stream\n"
      "                      block-by-block into admission\n"
      "  --export-csv=<file>    write the workload as CSV for analysis\n"
      "  --timeline-csv=<file>  write windowed time-series metrics as CSV\n"
      "  --timeline-json=<file> write windowed time-series metrics as JSON\n"
      "  --window-ms=<f>     timeline window length; overrides the\n"
      "                      scenario's [run] window_ms (default 1000 when\n"
      "                      a timeline export is requested without one)\n"
      "  --verbose           print per-protocol metrics and STL estimates");
}

Protocol ParseProtocol(const std::string& s) {
  Protocol p;
  if (ParseProtocolToken(s, &p)) return p;
  std::fprintf(stderr, "unknown protocol '%s'\n", s.c_str());
  std::exit(2);
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
  bool pure = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0) {
      PrintHelp();
      return 0;
    } else if (std::strcmp(a, "--verbose") == 0) {
      flags.verbose = true;
    } else if (std::strcmp(a, "--no-semi-locks") == 0) {
      flags.semi_locks = false;
    } else if (std::strcmp(a, "--pure") == 0) {
      pure = true;
    } else if (ParseFlag(a, "--policy", &flags.policy) ||
               ParseFlag(a, "--protocol", &flags.protocol) ||
               ParseFlag(a, "--detector", &flags.detector) ||
               ParseFlag(a, "--scenario", &flags.scenario) ||
               ParseFlag(a, "--record-trace", &flags.record_trace) ||
               ParseFlag(a, "--replay-trace", &flags.replay_trace) ||
               ParseFlag(a, "--export-csv", &flags.export_csv) ||
               ParseFlag(a, "--timeline-csv", &flags.timeline_csv) ||
               ParseFlag(a, "--timeline-json", &flags.timeline_json) ||
               ParseNumberFlag(a, "--lambda", &flags.lambda) ||
               ParseNumberFlag(a, "--txns", &flags.txns) ||
               ParseNumberFlag(a, "--items", &flags.items) ||
               ParseNumberFlag(a, "--user-sites", &flags.user_sites) ||
               ParseNumberFlag(a, "--data-sites", &flags.data_sites) ||
               ParseNumberFlag(a, "--replication", &flags.replication) ||
               ParseNumberFlag(a, "--size-min", &flags.size_min) ||
               ParseNumberFlag(a, "--size-max", &flags.size_max) ||
               ParseNumberFlag(a, "--read-fraction", &flags.read_fraction) ||
               ParseNumberFlag(a, "--zipf", &flags.zipf) ||
               ParseMsFlag(a, "--delay-ms", &flags.delay) ||
               ParseMsFlag(a, "--jitter-ms", &flags.jitter) ||
               ParseMsFlag(a, "--compute-ms", &flags.compute) ||
               ParseMsFlag(a, "--skew-ms", &flags.skew)) {
    } else if (ParseFlag(a, "--set", &v)) {
      flags.sets.push_back(v);
    } else if (ParseMsFlag(a, "--window-ms", &flags.window)) {
      flags.window_set = true;
    } else if (ParseNumberFlag(a, "--seed", &flags.seed)) {
      flags.seed_set = true;
    } else if (ParseNumberFlag(a, "--fault-seed", &flags.fault_seed)) {
      flags.fault_seed_set = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      return 2;
    }
  }

  // Resolve the run configuration: a scenario file provides everything;
  // otherwise the individual flags assemble an equivalent spec.
  EngineOptions eo;
  ScenarioPolicy policy;
  ScenarioSpec scenario;
  const bool from_scenario = !flags.scenario.empty();
  if (!flags.sets.empty() && !from_scenario) {
    std::fprintf(stderr, "--set needs --scenario\n");
    return 2;
  }
  if (from_scenario) {
    auto loaded_ini = IniFile::ReadFile(flags.scenario);
    if (!loaded_ini.ok()) {
      std::fprintf(stderr, "%s: %s\n", flags.scenario.c_str(),
                   loaded_ini.status().ToString().c_str());
      return 2;
    }
    IniFile ini = *loaded_ini;
    // Apply --set overrides before validation, so a bad override fails
    // exactly like a bad file. SECTION may contain spaces and dots; the
    // key is everything after the last dot before '='.
    for (const std::string& s : flags.sets) {
      const std::size_t eq = s.find('=');
      const std::size_t dot =
          eq == std::string::npos ? std::string::npos : s.rfind('.', eq);
      if (eq == std::string::npos || dot == std::string::npos || dot == 0 ||
          dot + 1 == eq) {
        std::fprintf(stderr,
                     "bad --set '%s' (expected SECTION.KEY=VALUE)\n",
                     s.c_str());
        return 2;
      }
      ini.Set(s.substr(0, dot), s.substr(dot + 1, eq - dot - 1),
              s.substr(eq + 1));
    }
    auto loaded = ScenarioSpec::FromIni(ini);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", flags.scenario.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    scenario = std::move(*loaded);
    if (flags.seed_set) scenario.engine.seed = flags.seed;
    eo = scenario.engine;
    policy = scenario.policy;
  } else {
    eo.num_user_sites = flags.user_sites;
    eo.num_data_sites = flags.data_sites;
    eo.num_items = flags.items;
    eo.replication = flags.replication;
    eo.network.base_delay = flags.delay;
    eo.network.jitter_mean = flags.jitter;
    eo.max_clock_skew = flags.skew;
    eo.semi_locks = flags.semi_locks;
    eo.seed = flags.seed;
    eo.backend = pure ? BackendKind::kPure : BackendKind::kUnified;
    eo.pure_protocol = ParseProtocol(flags.protocol);
    if (flags.detector == "none") {
      eo.detector = DetectorKind::kNone;
    } else if (flags.detector == "central") {
      eo.detector = DetectorKind::kCentral;
    } else {
      std::fprintf(stderr, "unknown detector '%s' (expected central or none)\n",
                   flags.detector.c_str());
      return 2;
    }
    if (flags.policy == "fixed") {
      policy.kind = ScenarioPolicy::Kind::kFixed;
      policy.fixed = ParseProtocol(flags.protocol);
    } else if (flags.policy == "mix") {
      policy.kind = ScenarioPolicy::Kind::kMix;
    } else if (flags.policy == "minstl") {
      policy.kind = ScenarioPolicy::Kind::kMinStl;
    } else if (flags.policy == "minavg") {
      policy.kind = ScenarioPolicy::Kind::kMinAvgTime;
    } else if (flags.policy == "trace") {
      policy.kind = ScenarioPolicy::Kind::kTrace;
    } else {
      std::fprintf(stderr, "unknown policy '%s'\n", flags.policy.c_str());
      return 2;
    }
  }
  if (flags.fault_seed_set) eo.fault.seed = flags.fault_seed;
  // Timeline export: --window-ms overrides the scenario's [run] window;
  // requesting an export without any window defaults to 1s windows.
  if (flags.window_set) eo.metrics_window = flags.window;
  const bool want_timeline =
      !flags.timeline_csv.empty() || !flags.timeline_json.empty();
  if (want_timeline && eo.metrics_window == 0) {
    eo.metrics_window = 1000 * kMillisecond;
  }
  if (auto s = eo.Validate(); !s.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  // The trace format follows from the file name: .txt records text,
  // anything else UCTC v2.
  const bool record_text = flags.record_trace.ends_with(".txt");

  // The workload: replayed from a trace, streamed lazily (a scenario with
  // [run] controls), built by the scenario, or drawn from the
  // flag-configured generator.
  std::vector<WorkloadGenerator::Arrival> arrivals;
  std::shared_ptr<std::unordered_set<TxnId>> forced;
  // Owned here, not by the engine, which drops its stream once drained:
  // the decode status is read after the run.
  std::unique_ptr<TraceReader> replay_reader;
  const bool open_run =
      from_scenario && scenario.IsOpenSystem() && flags.replay_trace.empty();
  if (open_run) {
    // The session streams the workload itself. CSV export (and a text
    // recording) describe the workload definition, which the run controls
    // may only partially admit; those still materialize it. A v2
    // recording streams generator -> writer below without materializing.
    if (!flags.export_csv.empty() ||
        (!flags.record_trace.empty() && record_text)) {
      arrivals = scenario.BuildWorkload().arrivals;
    }
  } else if (!flags.replay_trace.empty()) {
    // A v2 trace replays as a stream feeding admission block-by-block.
    // Materialize only when something needs the whole schedule up front
    // (re-recording or exporting it) or the file is not v2: ReadFile takes
    // text too, and says why a file is neither.
    auto reader = TraceReader::Open(flags.replay_trace);
    if (reader.ok() && flags.record_trace.empty() && flags.export_csv.empty()) {
      replay_reader = std::move(reader).value();
    } else {
      auto loaded = WorkloadTrace::ReadFile(flags.replay_trace);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s: %s\n", flags.replay_trace.c_str(),
                     loaded.status().ToString().c_str());
        return 2;
      }
      arrivals = std::move(*loaded);
    }
    if (from_scenario) {
      // The trace carries no class information; regenerate the scenario's
      // forced-protocol ids so replaying its own recording reproduces the
      // original run bit-for-bit (ids line up because generation is
      // deterministic in the seed).
      forced = scenario.BuildWorkload().forced;
    }
  } else if (from_scenario) {
    ScenarioSpec::Workload wl = scenario.BuildWorkload();
    arrivals = std::move(wl.arrivals);
    forced = std::move(wl.forced);
  } else {
    WorkloadOptions wo;
    wo.arrival_rate_per_sec = flags.lambda;
    wo.num_txns = flags.txns;
    wo.size_min = flags.size_min;
    wo.size_max = flags.size_max;
    wo.read_fraction = flags.read_fraction;
    wo.zipf_theta = flags.zipf;
    wo.compute_time = flags.compute;
    if (Status s = wo.Validate(flags.items, flags.user_sites); !s.ok()) {
      std::fprintf(stderr, "invalid workload: %s\n", s.ToString().c_str());
      return 2;
    }
    WorkloadGenerator gen(wo, flags.items, flags.user_sites,
                          Rng(eo.seed ^ 0x5bd1e995));
    arrivals = gen.Generate();
  }

  if (!flags.record_trace.empty()) {
    Status s;
    std::uint64_t recorded = arrivals.size();
    if (record_text) {
      s = WorkloadTrace::WriteFile(flags.record_trace, arrivals);
    } else if (open_run && flags.export_csv.empty()) {
      // Open-system v2 recording: stream the scenario's workload
      // definition straight into the block writer, O(one block) memory.
      auto writer = TraceWriter::Open(flags.record_trace);
      if (!writer.ok()) {
        s = writer.status();
      } else {
        ScenarioSpec::OpenWorkload ow = scenario.Open();
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

  // Assemble and run through the runner facade.
  ScenarioSpec run_spec = std::move(scenario);
  run_spec.engine = eo;
  run_spec.policy = policy;

  runner::RunRequest request;
  request.spec = &run_spec;
  if (replay_reader != nullptr) {
    // Streaming v2 replay: the session pulls arrivals block-by-block.
    request.arrival_stream = std::make_unique<BorrowedStream>(*replay_reader);
    request.forced = forced;
  } else if (!open_run) {
    // The workload was already materialized above (replay, recording or
    // batch build); hand it to the session verbatim.
    request.arrivals = &arrivals;
    request.forced = forced;
  }
  auto session_or = runner::RunSession::Create(std::move(request));
  if (!session_or.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 session_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<runner::RunSession> session = std::move(session_or).value();

  if (from_scenario && !run_spec.name.empty()) {
    std::printf("scenario           : %s%s%s\n", run_spec.name.c_str(),
                run_spec.description.empty() ? "" : " — ",
                run_spec.description.c_str());
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
      run_spec.engine.run.shed_policy != ShedPolicy::kBlock) {
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
        session->engine()->simulator().Now(), run_spec.engine.num_items);
    std::printf(
        "\nmeasured system parameters: lambda_A=%.1f/s lambda_r=%.3f "
        "lambda_w=%.3f Q_r=%.2f K=%.1f\n",
        sys.lambda_a, sys.lambda_r, sys.lambda_w, sys.q_r, sys.k_avg);
  }
  if (!run_report.status.ok()) return 3;  // cancelled, or accounting broke
  return stats.serializable ? 0 : 1;
}
