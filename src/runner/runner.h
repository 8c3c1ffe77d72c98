// The run-entrypoint library: one compiled implementation of "take a
// scenario, assemble the policy stack and engine, run it, extract row
// data", shared by the benches, the golden tests, unicc_sim, sweep_runner
// and perf_gate (each used to carry its own inline copy).
//
//   RunRequest  — scenario + overrides (seed, shard count, timeline
//                 window) + optional workload replay
//   RunSession  — validated, ready-to-run assembly (Status errors instead
//                 of aborts)
//   RunReport   — summary + extracted row stats
//
// With shards > 1 (or force_sharded) the session drives a ShardedEngine;
// otherwise the classic single-threaded Engine.
#ifndef UNICC_RUNNER_RUNNER_H_
#define UNICC_RUNNER_RUNNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
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
  std::optional<std::uint32_t> shards;
  std::optional<Duration> metrics_window;  // timeline window; 0 disables

  // Workload replay: run these arrivals instead of spec->BuildWorkload()
  // (the golden suite's record -> replay path). `forced` carries the
  // matching forced-protocol set.
  const std::vector<WorkloadGenerator::Arrival>* arrivals = nullptr;
  // Streaming replay: pull arrivals from this stream instead (the UCTC v2
  // trace-replay path — feeds streaming admission without materializing
  // the run). Mutually exclusive with `arrivals`; `forced` applies to
  // either. Sharded runs are batch-only, so they drain the stream first.
  std::unique_ptr<ArrivalStream> arrival_stream;
  std::shared_ptr<const std::unordered_set<TxnId>> forced;

  // Test knob: drive shards = 1 through the sharded window coordinator
  // instead of the classic engine (must match it byte-for-byte).
  bool force_sharded = false;
};

struct RunReport {
  RunStats stats;
  RunSummary summary;
  std::uint64_t events_run = 0;
  std::uint32_t shards = 1;
  // OK for a run that drained normally. FailedPrecondition when the run
  // watchdog cancelled the run (wall-clock run_deadline_ms exceeded, or no
  // commit/expiry progress for a full stall_ms window); the message names
  // the last progress point. Stats/summary then describe the partial run.
  // FailedPrecondition also when a drained run breaks an accounting
  // identity (see CheckAccounting); the message names the identity.
  Status status = Status::OK();
  // Wall-clock seconds per phase of Run(): setup (workload resolution,
  // engine build, admission), simulate (the event loop) and verify (stats
  // extraction, including the serializability and replica checks).
  double setup_s = 0;
  double simulate_s = 0;
  double verify_s = 0;
};

class RunSession {
 public:
  // Validates the request (engine options, shard/site partition, open-
  // system restrictions) and returns a ready session or the first error.
  static StatusOr<std::unique_ptr<RunSession>> Create(RunRequest request);

  ~RunSession();
  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;

  // Runs to completion. Call once.
  RunReport Run();

  // --- post-run inspection --------------------------------------------
  const RunMetrics& metrics() const;
  const TimelineRecorder* timeline() const;
  // The STL parameter estimator of one shard (shard 0 == the classic
  // engine's estimator when unsharded).
  const ParamEstimator& estimator(std::uint32_t shard = 0) const;
  std::uint32_t shards() const { return shards_; }
  const ScenarioSpec& spec() const { return spec_; }
  // Escape hatches for detailed tooling output; exactly one is non-null
  // after Run() (classic vs sharded path).
  Engine* engine() { return engine_.get(); }
  ShardedEngine* sharded() { return sharded_engine_.get(); }

 private:
  explicit RunSession(RunRequest request);
  EngineCallbacks MakeCallbacks(std::uint32_t shard);
  void InstallPolicy(std::uint32_t shard, Engine& engine);
  // The watchdog event loop (replaces Engine::Run when [run] sets
  // run_deadline_ms or stall_ms). Returns OK if the run drained, or
  // FailedPrecondition naming the last progress point if it was cancelled.
  Status RunWatched(const EngineOptions::WatchdogControls& wd);

  RunRequest request_;
  ScenarioSpec spec_;  // the request's spec with overrides applied
  std::uint32_t shards_ = 1;
  bool sharded_ = false;
  bool ran_ = false;

  // Per-shard policy stacks (index 0 is the classic engine's when
  // unsharded).
  std::vector<std::unique_ptr<ParamEstimator>> estimators_;
  std::vector<std::unique_ptr<MinAvgTimeSelector>> naive_;
  std::vector<std::unique_ptr<MinStlSelector>> selectors_;
  std::shared_ptr<const std::unordered_set<TxnId>> forced_;

  std::unique_ptr<Engine> engine_;          // classic path
  std::unique_ptr<ShardedEngine> sharded_engine_;  // sharded path
};

// Subscribes `est` to every estimator-relevant engine hook.
EngineCallbacks EstimatorCallbacks(ParamEstimator* est);

// Extracts the row data from a completed run.
RunStats ExtractStats(Engine& engine, const RunSummary& summary);
RunStats ExtractStats(ShardedEngine& engine, const RunSummary& summary);

// The accounting identities every drained run must satisfy:
//   committed + expired_in_flight == admitted, where expired_in_flight
//     counts admitted transactions that expired (stats.expired also counts
//     arrivals that expired while parked at the admission gate);
//   the per-protocol commits sum to committed;
//   the per-window commits sum to committed, when `timeline` is non-null.
// Returns FailedPrecondition naming the first identity that fails.
Status CheckAccounting(const RunStats& stats, std::uint64_t expired_in_flight,
                       const TimelineRecorder* timeline);

// The process's peak resident set size in KB (getrusage), 0 if the
// platform cannot report it.
std::uint64_t PeakRssKb();

// Thread-count negotiation between an outer worker pool (sweep_runner's
// --jobs) and the sharded engine: the product of jobs and shards must not
// oversubscribe the machine. Returns the number of outer jobs to actually
// use, always at least 1.
std::uint32_t NegotiateJobs(std::uint32_t requested_jobs,
                            std::uint32_t shards,
                            std::uint32_t hardware_threads);

}  // namespace unicc::runner

#endif  // UNICC_RUNNER_RUNNER_H_
