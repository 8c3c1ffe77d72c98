// Shared harness for the experiment benchmarks. The engine assembly and
// stats extraction now live in the compiled runner library
// (src/runner/runner.h); this header keeps the historical bench:: API as
// a thin veneer over runner::RunSession so the experiment drivers, the
// golden suite and sweep_runner compile unchanged.
#ifndef UNICC_BENCH_BENCH_UTIL_H_
#define UNICC_BENCH_BENCH_UTIL_H_

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "runner/runner.h"
#include "scenario/scenario.h"
#include "stl/estimators.h"
#include "workload/generator.h"

namespace unicc::bench {

// Cluster/workload configuration for one experiment run.
struct BenchConfig {
  std::uint32_t user_sites = 4;
  std::uint32_t data_sites = 4;
  ItemId num_items = 60;
  std::uint32_t replication = 1;
  Duration base_delay = 5 * kMillisecond;
  Duration jitter_mean = 2 * kMillisecond;
  double lambda = 20;           // arrivals per second
  std::uint64_t num_txns = 500;
  std::uint32_t size_min = 4;
  std::uint32_t size_max = 4;
  double read_fraction = 0.5;
  double zipf_theta = 0.0;
  Duration compute_time = 5 * kMillisecond;
  BackendKind backend = BackendKind::kUnified;
  Protocol pure_protocol = Protocol::kTwoPhaseLocking;
  bool semi_locks = true;
  Timestamp backoff_interval = 64;  // PA back-off interval INT
  std::uint64_t seed = 1234;
};

// Row data extracted from a completed run (now defined by the runner
// library; re-exported under the historical name).
using RunStats = runner::RunStats;

enum class PolicyKind { kFixed, kMixedEven, kMinStl, kMinAvgTime };

// Subscribes `est` to every estimator-relevant engine hook.
inline EngineCallbacks EstimatorCallbacks(ParamEstimator* est) {
  return runner::EstimatorCallbacks(est);
}

inline RunStats ExtractStats(Engine& engine, const RunSummary& summary) {
  return runner::ExtractStats(engine, summary);
}

// Runs one session and unwraps; bench callers predate Status plumbing.
inline runner::RunReport RunReportOrDie(runner::RunRequest request) {
  auto session = runner::RunSession::Create(std::move(request));
  UNICC_CHECK_MSG(session.ok(), session.status().message().c_str());
  return (*session)->Run();
}

inline RunStats RunRequestOrDie(runner::RunRequest request) {
  return RunReportOrDie(std::move(request)).stats;
}

// One built-in grid cell, with the report's wall-clock phases.
inline runner::RunReport RunOneReport(
    const BenchConfig& cfg, PolicyKind policy,
    Protocol fixed = Protocol::kTwoPhaseLocking) {
  ScenarioSpec spec;
  EngineOptions& eo = spec.engine;
  eo.num_user_sites = cfg.user_sites;
  eo.num_data_sites = cfg.data_sites;
  eo.num_items = cfg.num_items;
  eo.replication = cfg.replication;
  eo.network.base_delay = cfg.base_delay;
  eo.network.jitter_mean = cfg.jitter_mean;
  eo.backend = cfg.backend;
  eo.pure_protocol = fixed;
  eo.semi_locks = cfg.semi_locks;
  eo.default_backoff_interval = cfg.backoff_interval;
  eo.seed = cfg.seed;
  if (cfg.backend == BackendKind::kPure &&
      fixed == Protocol::kTimestampOrdering) {
    eo.detector = DetectorKind::kNone;
  }

  switch (policy) {
    case PolicyKind::kFixed:
      spec.policy.kind = ScenarioPolicy::Kind::kFixed;
      spec.policy.fixed = fixed;
      break;
    case PolicyKind::kMixedEven:
      spec.policy.kind = ScenarioPolicy::Kind::kMix;
      spec.policy.weights[0] = 1;
      spec.policy.weights[1] = 1;
      spec.policy.weights[2] = 1;
      break;
    case PolicyKind::kMinStl:
      spec.policy.kind = ScenarioPolicy::Kind::kMinStl;
      break;
    case PolicyKind::kMinAvgTime:
      spec.policy.kind = ScenarioPolicy::Kind::kMinAvgTime;
      break;
  }

  WorkloadOptions wo;
  wo.arrival_rate_per_sec = cfg.lambda;
  wo.num_txns = cfg.num_txns;
  wo.size_min = cfg.size_min;
  wo.size_max = cfg.size_max;
  wo.read_fraction = cfg.read_fraction;
  wo.zipf_theta = cfg.zipf_theta;
  wo.compute_time = cfg.compute_time;
  WorkloadGenerator gen(wo, cfg.num_items, cfg.user_sites,
                        Rng(cfg.seed ^ 0x5bd1e995));
  const std::vector<WorkloadGenerator::Arrival> arrivals = gen.Generate();

  runner::RunRequest request;
  request.spec = &spec;
  request.arrivals = &arrivals;
  return RunReportOrDie(std::move(request));
}

inline RunStats RunOne(const BenchConfig& cfg, PolicyKind policy,
                       Protocol fixed = Protocol::kTwoPhaseLocking) {
  return RunOneReport(cfg, policy, fixed).stats;
}

// Runs one declarative scenario to completion (sweep_runner's --scenario
// mode and scenario-driven benches). The arrivals-override flavour powers
// the golden determinism suite's record -> replay runs; RunScenario runs
// the path the scenario asks for (batch or streaming admission).
inline RunStats RunScenarioWith(
    const ScenarioSpec& spec,
    const std::vector<WorkloadGenerator::Arrival>& arrivals,
    std::shared_ptr<const std::unordered_set<TxnId>> forced) {
  runner::RunRequest request;
  request.spec = &spec;
  request.arrivals = &arrivals;
  request.forced = std::move(forced);
  return RunRequestOrDie(std::move(request));
}

inline runner::RunReport RunScenarioReport(const ScenarioSpec& spec) {
  runner::RunRequest request;
  request.spec = &spec;
  return RunReportOrDie(std::move(request));
}

inline RunStats RunScenario(const ScenarioSpec& spec) {
  return RunScenarioReport(spec).stats;
}

inline RunStats RunScenarioOpen(const ScenarioSpec& spec) {
  return RunScenario(spec);
}

}  // namespace unicc::bench

#endif  // UNICC_BENCH_BENCH_UTIL_H_
