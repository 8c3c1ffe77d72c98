// unicc_bench: end-to-end and per-layer benchmark of the unicc simulator.
//
//   unicc_bench --workload=NAME|all [--seed=S] [--repeats=N] [--seconds=T]
//               [--trace=FILE] [--smoke]
//
// Untraced (the default), each workload is run whole `--repeats` times, and
// more until `--seconds` of wall clock are used; the end-to-end metrics are
// medians over the repeats. With --trace, each workload runs once untraced
// and once with every layer boundary wrapped, the standalone layer kernels
// run, and the per-layer metrics plus a "where the wall time goes" table
// are printed; the spans go to FILE as Chrome trace-event JSON.
//
// Every run checks itself. The last line of the output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every check passed.
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>

#include <csignal>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "kernels.h"
#include "runner/runner.h"
#include "trace.h"

namespace unicc::bench {
namespace {

struct Cli {
  std::string workload;
  std::optional<std::uint64_t> seed;
  int repeats = 3;
  double seconds = 0;
  std::string trace_file;  // non-empty: traced mode
  bool smoke = false;
};

void PrintUsage() {
  std::printf(
      "usage: unicc_bench --workload=NAME|all [--seed=S] [--repeats=N]\n"
      "                   [--seconds=T] [--trace=FILE] [--smoke]\n"
      "  --workload   one of the workloads below, or all (one process each)\n"
      "  --seed       overrides each scenario's [engine] seed; multi-cell\n"
      "               workloads derive every cell's seed from it\n"
      "  --repeats    minimum number of whole runs per workload (3)\n"
      "  --seconds    keep repeating until about this much wall time (0)\n"
      "  --trace      traced mode: per-layer metrics, and the spans written\n"
      "               to FILE as Chrome trace-event JSON\n"
      "  --smoke      every workload at ~1%% of its size (the ctest check)\n"
      "workloads:\n");
  for (const WorkloadDef& w : Workloads()) {
    std::printf("  %-18s %s\n", w.name, w.why);
  }
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    char* end = nullptr;
    if (ParseFlag(argv[i], "--workload", &v)) {
      cli->workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      cli->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (ParseFlag(argv[i], "--repeats", &v)) {
      cli->repeats = std::atoi(v.c_str());
      if (cli->repeats < 1) return false;
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      cli->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cli->seconds >= 0)) return false;
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      if (v.empty()) return false;
      cli->trace_file = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      cli->smoke = true;
    } else {
      return false;
    }
  }
  return !cli->workload.empty();
}

// --- statistics ------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Distance between the first and third quartiles, computed like Python's
// statistics.quantiles(v, n=4) (the "exclusive" method).
double Iqr(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return 0;
  std::sort(v.begin(), v.end());
  auto quartile = [&](std::size_t i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * (n + 1)) - 4.0 * j;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  return quartile(3) - quartile(1);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintHeader(const WorkloadDef& def, const Cli& cli,
                 std::uint64_t offered, std::uint64_t cells) {
  std::printf("== %s: %s\n", def.name, def.why);
  std::printf(
      "   %llu txns offered in %llu cell(s) per run; seed %s; simulated "
      "time: open loop (Poisson arrivals), wall clock: closed loop of one "
      "run\n",
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(cells),
      cli.seed.has_value() ? std::to_string(*cli.seed).c_str()
                           : "from the scenario");
}

void ReportChecks(const std::vector<std::string>& failures) {
  if (failures.empty()) {
    std::printf(
        "   checks: serializable, replicas consistent, accounting, "
        "per-protocol sums, run-to-run digests, RunSession digest: ok\n");
    return;
  }
  for (const std::string& f : failures) {
    std::printf("   CHECK FAILED: %s\n", f.c_str());
  }
}

// FNV-1a over the cells' outcome digests: one value per repeat.
std::uint64_t RunDigest(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t d : r.cell_digests) {
    for (int i = 0; i < 8; ++i) {
      h ^= (d >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// What one repeat hands back from its process: plain data only.
struct RepeatSummary {
  double wall_s = 0;
  double peak_rss_mb = 0;
  double sim_tps = 0;
  double sim_p50_ms = 0;
  double sim_p95_ms = 0;
  double sim_p99_ms = 0;
  std::uint64_t samples = 0;  // system-time samples behind the percentiles
  std::uint64_t offered = 0;
  std::uint64_t committed = 0;
  std::uint64_t goodput = 0;
  std::uint64_t cells = 0;
  std::uint64_t digest = 0;
  char failure[256] = {};  // the first failed self-check; empty if none
  // Set-up times sampled after the repeat (see RunInChild).
  static constexpr std::uint32_t kMaxSetups = 32;
  std::uint32_t setups = 0;
  double setup_s[kMaxSetups] = {};
};

void SetFailure(RepeatSummary* s, const std::string& what) {
  std::snprintf(s->failure, sizeof(s->failure), "%s", what.c_str());
}

RepeatSummary Summarize(const RunResult& r) {
  RepeatSummary s;
  s.wall_s = r.wall_s;
  s.peak_rss_mb = static_cast<double>(runner::PeakRssKb()) / 1024;
  s.sim_tps = Ratio(static_cast<double>(r.committed),
                    static_cast<double>(r.makespan) / kSecond);
  s.sim_p50_ms = r.system_time.PercentileMs(50);
  s.sim_p95_ms = r.system_time.PercentileMs(95);
  s.sim_p99_ms = r.system_time.PercentileMs(99);
  s.samples = r.latency_samples;
  s.offered = r.offered;
  s.committed = r.committed;
  s.goodput = r.goodput;
  s.cells = r.cell_digests.size();
  s.digest = RunDigest(r);
  if (!r.failures.empty()) SetFailure(&s, r.failures[0]);
  return s;
}

// fork() with stdio flushed first (so buffered output is not written
// twice), and a child that dies with its parent.
pid_t ForkChild() {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
#ifdef __linux__
  if (pid == 0) prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  return pid;
}

// Runs one repeat in a forked child, so that every repeat starts from the
// same heap and its peak RSS is its own. Run in one process, each repeat
// reuses the previous repeats' freed and fragmented memory and runs
// measurably slower than the first.
//
// After the repeat the child also times set-up alone, back to back for
// 30 ms (at least once). Set-up takes milliseconds, so sampling it a little
// after every repeat spreads its samples over the whole run instead of
// one short window that a brief slowdown of the machine can cover.
RepeatSummary RunInChild(const WorkloadDef& def, const RunOptions& options) {
  RepeatSummary s;
  int fds[2];
  if (pipe(fds) != 0) {
    SetFailure(&s, "pipe failed");
    return s;
  }
  const pid_t pid = ForkChild();
  if (pid == 0) {
    close(fds[0]);
    RepeatSummary out = Summarize(RunWorkload(def, options));
    RunOptions setup = options;
    setup.setup_only = true;
    const double start = NowSeconds();
    do {
      out.setup_s[out.setups++] = RunWorkload(def, setup).setup_s();
    } while (out.setups < RepeatSummary::kMaxSetups &&
             NowSeconds() - start < 0.03);
    const char* p = reinterpret_cast<const char*>(&out);
    std::size_t left = sizeof(out);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    SetFailure(&s, "fork failed");
    return s;
  }
  std::size_t got = 0;
  char* p = reinterpret_cast<char*>(&s);
  while (got < sizeof(s)) {
    const ssize_t n = read(fds[0], p + got, sizeof(s) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!exited || got != sizeof(s)) {
    s = RepeatSummary{};
    SetFailure(&s, "the repeat's process died");
  }
  return s;
}

// Collects the repeats' own failures and checks that every repeat got the
// same outcome digest as the first.
void CheckRepeats(const std::vector<RepeatSummary>& runs, const char* what,
                  std::vector<std::string>* failures) {
  for (const RepeatSummary& r : runs) {
    if (r.failure[0] != '\0') failures->push_back(r.failure);
    if (r.digest != runs[0].digest) {
      failures->push_back(std::string(what) + " gave different results");
    }
  }
}

// --- untraced mode: end-to-end metrics -------------------------------------

int MeasureWorkload(const WorkloadDef& def, const Cli& cli) {
  std::vector<RepeatSummary> runs;
  const double start = NowSeconds();
  for (;;) {
    const double elapsed = NowSeconds() - start;
    const int n = static_cast<int>(runs.size());
    // Keep going while the next repeat is expected to end no more than
    // half a repeat past the target.
    if (n >= cli.repeats &&
        (n >= 1000 || elapsed + 0.5 * elapsed / n > cli.seconds)) {
      break;
    }
    RunOptions o;
    o.seed = cli.seed;
    o.smoke = cli.smoke;
    runs.push_back(RunInChild(def, o));
    if (runs.back().failure[0] != '\0') break;
  }
  const double measured_s = NowSeconds() - start;

  std::vector<double> tps;
  std::vector<double> rss;
  std::vector<double> setups;
  for (const RepeatSummary& r : runs) {
    tps.push_back(Ratio(static_cast<double>(r.committed), r.wall_s));
    rss.push_back(r.peak_rss_mb);
    setups.insert(setups.end(), r.setup_s, r.setup_s + r.setups);
  }

  std::vector<std::string> failures;
  CheckRepeats(runs, "repeats with one seed", &failures);
  if (Status s = CheckAgainstRunSession(def, cli.seed); !s.ok()) {
    failures.push_back("RunSession cross-check: " + s.ToString());
  }

  // The sim_* metrics and goodput are exact given the seed, so every
  // repeat has the same values (its digest is checked above).
  const RepeatSummary& r0 = runs[0];
  const double offered = static_cast<double>(r0.offered);
  std::vector<Metric> metrics = {
      {"wall_tps", Median(tps), "txn/s"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", Median(rss), "MB"},
      {"sim_tps", r0.sim_tps, "sim_txn/s"},
      {"sim_p50_ms", r0.sim_p50_ms, "sim_ms"},
      {"sim_p95_ms", r0.sim_p95_ms, "sim_ms"},
      {"goodput_ratio", Ratio(static_cast<double>(r0.goodput), offered),
       "ratio"},
  };

  PrintHeader(def, cli, r0.offered, r0.cells);
  std::printf("   %zu repeats in %.2f s, %zu set-up samples; wall_tps per "
              "repeat:",
              runs.size(), measured_s, setups.size());
  for (double v : tps) std::printf(" %.6g", v);
  std::printf("\n");
  ReportChecks(failures);
  std::printf(
      "   %-16s %16s %9s  %s\n", "end-to-end", "median", "rel.IQR", "unit");
  for (const Metric& m : metrics) {
    double iqr = 0;
    if (m.name == "wall_tps") iqr = Iqr(tps);
    if (m.name == "setup_s") iqr = Iqr(setups);
    if (m.name == "peak_rss_mb") iqr = Iqr(rss);
    std::printf("   %-16s %16.6g %8.2f%%  %s\n", m.name.c_str(), m.value,
                100 * Ratio(iqr, m.value), m.unit.c_str());
  }
  // p99 is shown but not gated: on adaptive_hotspot its tail is the few
  // percent of T/O restarts, and it moves by ~10% from seed to seed.
  std::printf("   %-16s %16.6g %8s   %s (%llu samples)\n", "sim_p99_ms",
              r0.sim_p99_ms, "", "sim_ms",
              static_cast<unsigned long long>(r0.samples));
  std::printf("   %-16s %16.6g %8s   %s\n", "fail_ratio",
              Ratio(offered - static_cast<double>(r0.goodput), offered), "",
              "ratio (shed or expired; reported as failed only if a check "
              "fails)");

  std::uint64_t attempted = 0;
  for (const RepeatSummary& r : runs) attempted += r.offered;
  attempted = std::max<std::uint64_t>(attempted, 1);
  PrintJson(failures.empty(), attempted, failures.empty() ? 0 : attempted,
            metrics);
  return failures.empty() ? 0 : 1;
}

// --- traced mode: per-layer metrics ----------------------------------------

int TraceWorkload(const WorkloadDef& def, const Cli& cli, TraceLog* log) {
  // Both runs start from a fresh heap: the untraced one in a child
  // process, the traced one first in this process.
  RunOptions o;
  o.seed = cli.seed;
  o.smoke = cli.smoke;
  const RepeatSummary plain = RunInChild(def, o);
  Probes probes;
  o.probes = &probes;
  o.trace = log;
  const RunResult t = RunWorkload(def, o);
  const double at = NowSeconds();
  log->AddAggregate("selector.choose", def.name, at, probes.selector_choose);
  log->AddAggregate("stl.intake", def.name, at, probes.stl_intake);
  log->AddAggregate("workload.stream_next", def.name, at, probes.stream_next);
  const KernelCosts k = RunKernels(cli.smoke ? 0.002 : 0.1);

  std::vector<std::string> failures;
  CheckRepeats({plain, Summarize(t)}, "the traced and untraced runs",
               &failures);
  if (Status s = CheckAgainstRunSession(def, cli.seed); !s.ok()) {
    failures.push_back("RunSession cross-check: " + s.ToString());
  }

  const double wrapped = probes.selector_choose.total_s() +
                         probes.stl_intake.total_s() +
                         probes.stream_next.total_s();
  const double run_self_s = t.run_s - wrapped;
  const double committed = static_cast<double>(t.committed);
  const double events = static_cast<double>(t.events);
  const double data_sites = std::max(1u, t.data_sites);
  auto kind = [&t](MessageKind k) {
    return static_cast<double>(t.msgs_by_kind[static_cast<std::size_t>(k)]);
  };
  const double snapshot_requests = kind(MessageKind::kWfgSnapshotRequest);

  std::vector<Metric> metrics = {
      {"scenario.parse_s", t.parse_s, "s"},
      {"workload.generate_s", t.generate_s, "s"},
      {"engine.build_s", t.build_s, "s"},
      {"engine.admit_s", t.admit_s, "s"},
      {"engine.run_s", t.run_s, "s"},
      {"engine.run_self_s", run_self_s, "s"},
      {"storage.verify_replicas_s", t.verify_s, "s"},
      {"serializability.check_s", t.check_s, "s"},
      {"selector.choose_calls",
       static_cast<double>(probes.selector_choose.count()), "count"},
      {"selector.choose_s", probes.selector_choose.total_s(), "s"},
      {"selector.choose_p99_us", probes.selector_choose.PercentileUs(99),
       "us"},
      {"stl.intake_calls", static_cast<double>(probes.stl_intake.count()),
       "count"},
      {"stl.intake_s", probes.stl_intake.total_s(), "s"},
      {"workload.stream_next_calls",
       static_cast<double>(probes.stream_next.count()), "count"},
      {"workload.stream_next_s", probes.stream_next.total_s(), "s"},
      {"sim.events", events, "count"},
      {"sim.ns_per_event", Ratio(run_self_s * 1e9, events), "ns/event"},
      {"net.msgs_total", static_cast<double>(t.msgs_total), "count"},
      {"net.msgs_remote", static_cast<double>(t.msgs_remote), "count"},
      {"net.msgs_per_txn", Ratio(static_cast<double>(t.msgs_remote), committed),
       "msgs/txn"},
  };
  for (std::size_t i = 0; i < std::size(t.msgs_by_kind); ++i) {
    const auto mk = static_cast<MessageKind>(i);
    metrics.push_back({"net.msgs." + std::string(MessageKindName(mk)),
                       kind(mk), "count"});
  }
  const std::vector<Metric> tail = {
      {"cc.reject_restarts", static_cast<double>(t.reject_restarts), "count"},
      {"cc.backoff_rounds", static_cast<double>(t.backoff_rounds), "count"},
      {"cc.commit_ratio",
       Ratio(committed, committed + static_cast<double>(t.restarts)), "ratio"},
      {"deadlock.victims", static_cast<double>(t.victims), "count"},
      {"deadlock.rounds", snapshot_requests / data_sites, "count"},
      {"storage.log_records", static_cast<double>(t.log_records), "count"},
      {"engine.shed", static_cast<double>(t.shed), "count"},
      {"engine.expired", static_cast<double>(t.expired), "count"},
      {"engine.retried", static_cast<double>(t.retried), "count"},
      {"sim.schedule_run_ns", k.sim_schedule_run_ns, "ns"},
      {"net.send_deliver_ns", k.net_send_deliver_ns, "ns"},
      {"cc.qm_grant_release_ns", k.cc_qm_grant_release_ns, "ns"},
      {"deadlock.collect_edges_us.q64", k.collect_edges_us_q64, "us"},
      {"deadlock.collect_edges_us.q131072", k.collect_edges_us_q131072, "us"},
      {"deadlock.find_cycle_us.e4096", k.find_cycle_us_e4096, "us"},
      {"stl.snapshot_ns", k.stl_snapshot_ns, "ns"},
      {"selector.refresh_us", k.selector_refresh_us, "us"},
      {"storage.store_rw_ns", k.store_rw_ns, "ns"},
      {"storage.replica_probe_ns", k.replica_probe_ns, "ns"},
      {"workload.zipf_rejection_ns", k.zipf_rejection_ns, "ns"},
      {"workload.stream_pull_ns", k.stream_pull_ns, "ns"},
      {"serializability.check_ns_per_record", k.check_ns_per_record,
       "ns/record"},
      {"trace.overhead_ratio", Ratio(t.wall_s, plain.wall_s), "ratio"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  PrintHeader(def, cli, t.offered, t.cell_digests.size());
  ReportChecks(failures);
  std::printf("   %-36s %16s  %s\n", "per-layer (traced run)", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("   %-36s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  static const char* kProto[kNumProtocols] = {"2pl", "to", "pa"};
  for (int p = 0; p < kNumProtocols; ++p) {
    std::printf("   %-36s %16llu  count\n",
                ("selector.chose." + std::string(kProto[p])).c_str(),
                static_cast<unsigned long long>(t.chose[p]));
  }

  // Where the wall time goes: measured phases and wrapped calls, then the
  // engine's self time split by layer as exact counts x kernel unit costs.
  // Queues accumulate as the run touches copies, so a detector round sees
  // on average about half of a site's final count.
  const double cells = static_cast<double>(std::max<std::size_t>(
      1, t.cell_digests.size()));
  const auto queues = static_cast<std::uint32_t>(
      static_cast<double>(t.touched_copies) / cells / data_sites / 2);
  const double collect_us = CollectEdgesUs(queues, cli.smoke ? 0.002 : 0.05);
  struct Row {
    const char* name;
    double s;
    const char* how;
  };
  const double est_sim = events * k.sim_schedule_run_ns * 1e-9;
  const double est_net =
      static_cast<double>(t.msgs_total) *
      std::max(0.0, k.net_send_deliver_ns - k.sim_schedule_run_ns) * 1e-9;
  const double est_cc =
      kind(MessageKind::kCcRequest) *
      std::max(0.0, k.cc_qm_grant_release_ns - k.net_send_deliver_ns) * 1e-9;
  const double est_deadlock =
      snapshot_requests * collect_us * 1e-6;
  const double est_storage =
      static_cast<double>(t.log_records) * k.store_rw_ns * 1e-9;
  const double phases = t.parse_s + t.generate_s + t.build_s + t.admit_s +
                        t.run_s + t.verify_s + t.check_s;
  const std::vector<Row> rows = {
      {"scenario.parse", t.parse_s, "measured"},
      {"workload.generate", t.generate_s, "measured"},
      {"engine.build", t.build_s, "measured"},
      {"engine.admit", t.admit_s, "measured"},
      {"engine.run", t.run_s, "measured"},
      {"  selector.choose", probes.selector_choose.total_s(), "wrapped"},
      {"  stl.intake", probes.stl_intake.total_s(), "wrapped"},
      {"  workload.stream_next", probes.stream_next.total_s(), "wrapped"},
      {"  engine.run_self", run_self_s, "run - wrapped"},
      {"    ~ sim event loop", est_sim, "estimate: events x schedule_run"},
      {"    ~ net transport", est_net,
       "estimate: msgs x (send_deliver - schedule_run)"},
      {"    ~ cc queue manager", est_cc,
       "estimate: CcRequests x (qm_grant_release - send_deliver)"},
      {"    ~ deadlock snapshots", est_deadlock,
       "estimate: snapshot requests x collect_edges(queues)"},
      {"    ~ storage writes", est_storage,
       "estimate: log records x store_rw"},
      {"    ~ residual", run_self_s - est_sim - est_net - est_cc -
                             est_deadlock - est_storage,
       "issuer, routing, metrics and estimate error"},
      {"storage.verify_replicas", t.verify_s, "measured"},
      {"serializability.check", t.check_s, "measured"},
      {"residual", t.wall_s - phases, "wall - phases"},
      {"wall", t.wall_s, "measured"},
  };
  std::printf("   where the wall time goes (traced run; ~ rows are "
              "estimates; collect_edges measured at %u queues, %.3g us)\n",
              queues, collect_us);
  for (const Row& r : rows) {
    std::printf("   %-28s %10.4f s %6.1f%%  %s\n", r.name, r.s,
                100 * Ratio(r.s, t.wall_s), r.how);
  }

  const std::uint64_t attempted =
      std::max<std::uint64_t>(plain.offered + t.offered, 1);
  PrintJson(failures.empty(), attempted, failures.empty() ? 0 : attempted,
            metrics);
  return failures.empty() ? 0 : 1;
}

int RunOne(const WorkloadDef& def, const Cli& cli, TraceLog* log) {
  return cli.trace_file.empty() ? MeasureWorkload(def, cli)
                                : TraceWorkload(def, cli, log);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out.flush());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Runs each workload in a child process of its own, so each one's peak
// RSS is its own; a traced child leaves its events in a part file that is
// merged into the one trace file.
int RunAll(const std::vector<const WorkloadDef*>& todo, const Cli& cli) {
  int worst = 0;
  std::string events;
  for (const WorkloadDef* def : todo) {
    const std::string part = cli.trace_file + "." + def->name + ".part";
    const pid_t pid = ForkChild();
    if (pid < 0) {
      std::perror("unicc_bench: fork");
      return 2;
    }
    if (pid == 0) {
      TraceLog log;
      int rc = RunOne(*def, cli, &log);
      if (!cli.trace_file.empty() && !WriteFile(part, log.EventsJson())) {
        std::fprintf(stderr, "unicc_bench: cannot write %s\n", part.c_str());
        rc = 2;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(rc);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) status = -1;
    const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 3;
    if (rc != 0) {
      std::printf("unicc_bench: %s exited with %d\n", def->name, rc);
    }
    worst = std::max(worst, rc);
    if (!cli.trace_file.empty()) {
      const std::string e = ReadFile(part);
      if (!e.empty()) events += (events.empty() ? "" : ",\n") + e;
      std::remove(part.c_str());
    }
  }
  if (!cli.trace_file.empty() && !WriteChromeTrace(cli.trace_file, events)) {
    std::fprintf(stderr, "unicc_bench: cannot write %s\n",
                 cli.trace_file.c_str());
    worst = std::max(worst, 2);
  }
  std::printf("unicc_bench: %zu workloads, %s\n", todo.size(),
              worst == 0 ? "all checks passed" : "FAILED");
  return worst;
}

}  // namespace
}  // namespace unicc::bench

int main(int argc, char** argv) {
  using namespace unicc::bench;
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) {
    PrintUsage();
    return 2;
  }
  std::vector<const WorkloadDef*> todo;
  if (cli.workload == "all") {
    for (const WorkloadDef& w : Workloads()) todo.push_back(&w);
  } else if (const WorkloadDef* w = FindWorkload(cli.workload)) {
    todo.push_back(w);
  } else {
    std::fprintf(stderr, "unicc_bench: unknown workload '%s'\n",
                 cli.workload.c_str());
    PrintUsage();
    return 2;
  }
  NowSeconds();  // starts the trace clock
  if (todo.size() > 1) return RunAll(todo, cli);
  TraceLog log;
  const int rc = RunOne(*todo[0], cli, &log);
  if (!cli.trace_file.empty() &&
      !WriteChromeTrace(cli.trace_file, log.EventsJson())) {
    std::fprintf(stderr, "unicc_bench: cannot write %s\n",
                 cli.trace_file.c_str());
    return 2;
  }
  return rc;
}
