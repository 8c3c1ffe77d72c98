// The run-entrypoint library: one compiled implementation of "take a
// scenario, assemble the policy stack and engine, run it, extract row
// data", shared by the golden and pinned-result tests, unicc_sim and
// sweep_runner (each used to carry its own inline copy).
//
//   RunRequest  — scenario + overrides (seed, fault seed, timeline
//                 window) + optional workload replay
//   RunSession  — validated, ready-to-run assembly (Status errors instead
//                 of aborts)
//   RunReport   — summary + extracted row stats
#ifndef UNICC_RUNNER_RUNNER_H_
#define UNICC_RUNNER_RUNNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "scenario/scenario.h"
#include "selector/selector.h"
#include "stl/estimators.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace unicc::runner {

// Row data extracted from a completed run (the experiment tables' columns).
struct RunStats {
  double mean_s_ms = 0;  // mean transaction system time S
  double p95_s_ms = 0;
  std::uint64_t offered = 0;  // see RunSummary::offered
  std::uint64_t admitted = 0;
  std::uint64_t committed = 0;
  SimTime makespan = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t log_records = 0;
  bool replicas_consistent = false;
  std::uint64_t deadlock_victims = 0;
  std::uint64_t reject_restarts = 0;
  std::uint64_t backoff_rounds = 0;
  double msgs_per_txn = 0;     // remote messages per committed transaction
  double cc_msgs_per_txn = 0;  // concurrency-control messages only
                               // (excludes deadlock-detector traffic)
  double throughput = 0;       // committed per simulated second
  bool serializable = false;
  // Transactions the online serializability checker examined (those with
  // an implemented operation: every committed one), and those it still
  // holds after the run (none after a drained serializable run).
  std::uint64_t checked_txns = 0;
  std::uint64_t held_txns = 0;
  // Overload-control outcomes (zero unless the scenario engages the
  // bounded admission gate / deadlines).
  std::uint64_t shed = 0;      // dropped at the admission gate
  std::uint64_t expired = 0;   // expired past their deadline
  std::uint64_t retried = 0;   // shed arrivals re-submitted with backoff
  std::uint64_t goodput = 0;   // commits that met their deadline
  // Per-protocol mean S (only meaningful for mixed runs).
  double mean_s_ms_by_proto[kNumProtocols] = {0, 0, 0};
  std::uint64_t committed_by_proto[kNumProtocols] = {0, 0, 0};
  // Process-wide peak resident set at the end of the run, in KB (0 when
  // the platform cannot report it). A high-water mark: in a sweep, a
  // cell's value reflects the largest run up to and including it.
  std::uint64_t peak_rss_kb = 0;
};

// What to run and how. The pointed-to spec and arrivals must outlive the
// session (they are read during Create and Run).
struct RunRequest {
  const ScenarioSpec* spec = nullptr;

  // Overrides applied on top of the spec before anything is built.
  std::optional<std::uint64_t> seed;
  // Overrides [fault] seed (0 re-derives one from the engine seed).
  std::optional<std::uint64_t> fault_seed;
  std::optional<Duration> metrics_window;  // timeline window; 0 disables

  // Workload replay: run these arrivals instead of spec->BuildWorkload()
  // (the golden suite's record -> replay path). An open-system spec
  // admits them through its [run] controls, like a stream; a closed one
  // admits them as a batch. `forced` carries the matching forced-protocol
  // set.
  const std::vector<WorkloadGenerator::Arrival>* arrivals = nullptr;
  // Streaming replay: pull arrivals from this stream instead (the UCTC v2
  // trace-replay path). An open-system spec feeds it to streaming
  // admission without materializing the run; a closed one drains it into
  // a batch, like `arrivals`. Mutually exclusive with `arrivals`; `forced`
  // applies to either.
  std::unique_ptr<ArrivalStream> arrival_stream;
  std::shared_ptr<const std::unordered_set<TxnId>> forced;
};

struct RunReport {
  RunStats stats;
  RunSummary summary;
  std::uint64_t events_run = 0;
  // OK for a run that drained normally. FailedPrecondition when the run
  // watchdog cancelled the run (wall-clock run_deadline_ms exceeded, or no
  // commit/expiry progress for a full stall_ms window); the message names
  // the last progress point. Stats/summary then describe the partial run.
  // FailedPrecondition also when a drained run breaks an accounting
  // identity (see CheckAccounting); the message names the identity.
  Status status = Status::OK();
  // Wall-clock seconds per phase of Run(): setup (workload resolution,
  // engine build, admission), simulate (the event loop, which also feeds
  // the online serializability checker) and verify (stats extraction: the
  // replica check, plus the checker's verdict over what it still holds).
  double setup_s = 0;
  double simulate_s = 0;
  double verify_s = 0;
};

class RunSession {
 public:
  // Validates the request (engine options, the pure backend's protocol
  // rule, replay inputs) and returns a ready session or the first error.
  static StatusOr<std::unique_ptr<RunSession>> Create(RunRequest request);

  ~RunSession();
  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  // Runs to completion. Call once.
  RunReport Run();

  // --- post-run inspection --------------------------------------------
  const RunMetrics& metrics() const;
  const TimelineRecorder* timeline() const;
  // The STL parameter estimator the engine's callbacks feed.
  const ParamEstimator& estimator() const { return estimator_; }
  const ScenarioSpec& spec() const { return spec_; }
  // Escape hatch for detailed tooling output; non-null after Run().
  Engine* engine() { return engine_.get(); }

 private:
  explicit RunSession(RunRequest request);
  EngineCallbacks MakeCallbacks();
  void InstallPolicy();

  RunRequest request_;
  ScenarioSpec spec_;  // the request's spec with overrides applied
  bool ran_ = false;

  // The policy stack; declared before engine_, whose callbacks and policy
  // point into it.
  ParamEstimator estimator_;
  MinAvgTimeSelector naive_;
  std::unique_ptr<MinStlSelector> selector_;
  std::shared_ptr<const std::unordered_set<TxnId>> forced_;

  std::unique_ptr<Engine> engine_;
};

// Subscribes `est` to every estimator-relevant engine hook.
EngineCallbacks EstimatorCallbacks(ParamEstimator* est);

// Extracts the row data from a completed run.
RunStats ExtractStats(Engine& engine, const RunSummary& summary);

// The accounting identities every drained run must satisfy:
//   committed + expired_in_flight == admitted, where expired_in_flight
//     counts admitted transactions that expired (stats.expired also counts
//     arrivals that expired while parked at the admission gate);
//   committed + expired + (shed - retried) == offered: every offered
//     arrival ends exactly once, and a retried shed re-enters. Skipped
//     when `admission_closed` (commit_target closed admission and dropped
//     parked work uncounted);
//   the per-protocol commits sum to committed;
//   the per-window commits sum to committed, when `timeline` is non-null;
//   the serializability checker examined exactly the committed
//     transactions, and holds none when it reports the history
//     serializable (a missed abort or a lost record would leave some held).
// Returns FailedPrecondition naming the first identity that fails.
Status CheckAccounting(const RunStats& stats, std::uint64_t expired_in_flight,
                       bool admission_closed,
                       const TimelineRecorder* timeline);

// The process's peak resident set size in KB (getrusage), 0 if the
// platform cannot report it.
std::uint64_t PeakRssKb();

}  // namespace unicc::runner

#endif  // UNICC_RUNNER_RUNNER_H_
