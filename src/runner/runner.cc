#include "runner/runner.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/check.h"
#include "engine/builder.h"

namespace unicc::runner {

EngineCallbacks EstimatorCallbacks(ParamEstimator* est) {
  EngineCallbacks callbacks;
  callbacks.on_commit = [est](const TxnResult& r) { est->OnCommit(r); };
  callbacks.on_request_sent = [est](Protocol p, OpType op) {
    est->OnRequestSent(p, op);
  };
  callbacks.on_lock_hold = [est](Protocol p, Duration d, bool a) {
    est->OnLockHold(p, d, a);
  };
  callbacks.on_restart = [est](Protocol p, TxnOutcome w) {
    est->OnRestart(p, w);
  };
  callbacks.on_grant = [est](const CopyId&, OpType op, Protocol) {
    est->OnGrant(op);
  };
  callbacks.on_reject = [est](OpType op, Protocol p) {
    est->OnReject(op, p);
  };
  callbacks.on_backoff_offer = [est](OpType op) {
    est->OnBackoffOffer(op);
  };
  return callbacks;
}

namespace {

// Seconds since *mark; moves *mark to now.
double SecondsSince(std::chrono::steady_clock::time_point* mark) {
  const auto now = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(now - *mark).count();
  *mark = now;
  return s;
}

template <typename EngineT, typename KindCountFn>
RunStats ExtractStatsImpl(EngineT& engine, const RunSummary& summary,
                          KindCountFn&& kind_count) {
  RunStats out;
  out.mean_s_ms = engine.metrics().MeanSystemTimeMs();
  out.p95_s_ms = engine.metrics().SystemTime().PercentileMs(95);
  out.admitted = summary.admitted;
  out.makespan = summary.makespan;
  out.total_messages = summary.total_messages;
  out.log_records = engine.log().TotalRecords();
  out.replicas_consistent = engine.ReplicasConsistent();
  out.committed = summary.committed;
  out.deadlock_victims = summary.deadlock_victims;
  out.reject_restarts = summary.reject_restarts;
  out.backoff_rounds = summary.backoff_rounds;
  out.msgs_per_txn = summary.committed == 0
                         ? 0
                         : static_cast<double>(summary.remote_messages) /
                               static_cast<double>(summary.committed);
  std::uint64_t cc_msgs = 0;
  for (MessageKind k :
       {MessageKind::kCcRequest, MessageKind::kGrant, MessageKind::kBackoff,
        MessageKind::kPaAccept, MessageKind::kFinalTs, MessageKind::kReject,
        MessageKind::kRelease, MessageKind::kSemiTransform,
        MessageKind::kAbortTxn}) {
    cc_msgs += kind_count(k);
  }
  out.cc_msgs_per_txn = summary.committed == 0
                            ? 0
                            : static_cast<double>(cc_msgs) /
                                  static_cast<double>(summary.committed);
  out.throughput = engine.metrics().ThroughputPerSec(summary.makespan);
  out.serializable = engine.CheckSerializability().serializable;
  out.shed = engine.metrics().shed();
  out.expired = engine.metrics().expired();
  out.retried = engine.metrics().retried();
  out.goodput = engine.metrics().goodput_committed();
  for (int p = 0; p < kNumProtocols; ++p) {
    const auto& ps = engine.metrics().ForProtocol(static_cast<Protocol>(p));
    out.mean_s_ms_by_proto[p] = ps.system_time.MeanMs();
    out.committed_by_proto[p] = ps.committed;
  }
  return out;
}

}  // namespace

RunStats ExtractStats(Engine& engine, const RunSummary& summary) {
  return ExtractStatsImpl(engine, summary, [&engine](MessageKind k) {
    return engine.transport().MessagesOfKind(k);
  });
}

RunStats ExtractStats(ShardedEngine& engine, const RunSummary& summary) {
  return ExtractStatsImpl(engine, summary, [&engine](MessageKind k) {
    return engine.MessagesOfKind(k);
  });
}

Status CheckAccounting(const RunStats& stats, std::uint64_t expired_in_flight,
                       const TimelineRecorder* timeline) {
  if (stats.committed + expired_in_flight != stats.admitted) {
    return Status::FailedPrecondition(
        "accounting: committed + expired != admitted (" +
        std::to_string(stats.committed) + " + " +
        std::to_string(expired_in_flight) + " != " +
        std::to_string(stats.admitted) + ")");
  }
  std::uint64_t by_proto = 0;
  for (std::uint64_t c : stats.committed_by_proto) by_proto += c;
  if (by_proto != stats.committed) {
    return Status::FailedPrecondition(
        "accounting: per-protocol commits sum to " + std::to_string(by_proto) +
        ", committed " + std::to_string(stats.committed));
  }
  if (timeline != nullptr) {
    std::uint64_t by_window = 0;
    for (std::size_t w = 0; w < timeline->NumWindows(); ++w) {
      by_window += timeline->Window(w).committed;
    }
    if (by_window != stats.committed) {
      return Status::FailedPrecondition(
          "accounting: per-window commits sum to " +
          std::to_string(by_window) + ", committed " +
          std::to_string(stats.committed));
    }
  }
  return Status::OK();
}

std::uint64_t PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // kilobytes
#endif
#else
  return 0;
#endif
}

std::uint32_t NegotiateJobs(std::uint32_t requested_jobs,
                            std::uint32_t shards,
                            std::uint32_t hardware_threads) {
  if (requested_jobs == 0) requested_jobs = 1;
  if (shards == 0) shards = 1;
  if (hardware_threads == 0) hardware_threads = 1;
  const std::uint32_t cap = std::max(1u, hardware_threads / shards);
  return std::min(requested_jobs, cap);
}

RunSession::RunSession(RunRequest request)
    : request_(std::move(request)), spec_(*request_.spec) {
  if (request_.seed.has_value()) spec_.engine.seed = *request_.seed;
  if (request_.fault_seed.has_value()) {
    spec_.engine.fault.seed = *request_.fault_seed;
  }
  if (request_.metrics_window.has_value()) {
    spec_.engine.metrics_window = *request_.metrics_window;
  }
  if (request_.shards.has_value()) spec_.engine.shards = *request_.shards;
  shards_ = spec_.engine.shards;
  sharded_ = shards_ > 1 || request_.force_sharded;
}

RunSession::~RunSession() = default;

StatusOr<std::unique_ptr<RunSession>> RunSession::Create(RunRequest request) {
  if (request.spec == nullptr) {
    return Status::InvalidArgument("RunRequest needs a scenario spec");
  }
  if (request.arrivals != nullptr && request.arrival_stream != nullptr) {
    return Status::InvalidArgument(
        "replay arrivals and a replay stream are mutually exclusive");
  }
  if (request.arrivals == nullptr && request.arrival_stream == nullptr &&
      request.forced != nullptr) {
    return Status::InvalidArgument(
        "a forced-protocol set only makes sense with replay arrivals");
  }
  auto session = std::unique_ptr<RunSession>(new RunSession(std::move(request)));
  if (Status s = session->spec_.engine.Validate(); !s.ok()) return s;
  if (session->sharded_ && session->request_.arrivals == nullptr &&
      session->request_.arrival_stream == nullptr &&
      session->spec_.IsOpenSystem()) {
    return Status::InvalidArgument(
        "sharded runs are batch-only: open-system (streaming-admission) "
        "scenarios cannot be partitioned");
  }
  if (session->sharded_ &&
      (session->spec_.engine.watchdog.run_deadline != 0 ||
       session->spec_.engine.watchdog.stall_window != 0)) {
    return Status::InvalidArgument(
        "the run watchdog (run_deadline_ms / stall_ms) drives the classic "
        "engine in windows; it is incompatible with sharded runs");
  }
  return session;
}

EngineCallbacks RunSession::MakeCallbacks(std::uint32_t shard) {
  while (estimators_.size() <= shard) {
    estimators_.push_back(std::make_unique<ParamEstimator>());
    naive_.push_back(std::make_unique<MinAvgTimeSelector>());
  }
  ParamEstimator* est = estimators_[shard].get();
  est->SetDecayWindow(spec_.policy.estimator_window);
  EngineCallbacks callbacks = EstimatorCallbacks(est);
  if (spec_.policy.kind == ScenarioPolicy::Kind::kMinAvgTime) {
    MinAvgTimeSelector* n = naive_[shard].get();
    auto inner = callbacks.on_commit;
    callbacks.on_commit = [n, inner](const TxnResult& r) {
      n->OnCommit(r);
      if (inner) inner(r);
    };
  }
  return callbacks;
}

void RunSession::InstallPolicy(std::uint32_t shard, Engine& engine) {
  ProtocolPolicy base;
  switch (spec_.policy.kind) {
    case ScenarioPolicy::Kind::kFixed:
      base = FixedProtocol(spec_.policy.fixed);
      break;
    case ScenarioPolicy::Kind::kMix:
      // Per-shard policy rng keyed off the shard engine's (mixed) seed, so
      // shard 0 replays the classic engine's draw stream exactly.
      base = MixedProtocol(spec_.policy.weights[0], spec_.policy.weights[1],
                           spec_.policy.weights[2],
                           Rng(engine.options().seed ^ 77));
      break;
    case ScenarioPolicy::Kind::kMinStl:
      if (selectors_.size() <= shard) selectors_.resize(shard + 1);
      selectors_[shard] = std::make_unique<MinStlSelector>(
          &engine.simulator(), estimators_[shard].get(),
          static_cast<std::size_t>(spec_.engine.num_items) *
              spec_.engine.replication);
      base = selectors_[shard]->AsPolicy();
      break;
    case ScenarioPolicy::Kind::kMinAvgTime:
      base = naive_[shard]->AsPolicy();
      break;
    case ScenarioPolicy::Kind::kTrace:
      base = nullptr;  // spec protocols used verbatim
      break;
  }
  engine.SetProtocolPolicy(ForcedAwarePolicy(std::move(base), forced_));
}

RunReport RunSession::Run() {
  UNICC_CHECK_MSG(!ran_, "RunSession::Run may only be called once");
  ran_ = true;
  RunReport report;
  auto mark = std::chrono::steady_clock::now();

  // Resolve the workload (and its forced-protocol set) before any engine
  // exists; workload generation draws from its own rng streams.
  const std::vector<WorkloadGenerator::Arrival>* arrivals = request_.arrivals;
  ScenarioSpec::Workload built;
  std::unique_ptr<ArrivalStream> stream;
  if (request_.arrival_stream != nullptr) {
    forced_ = request_.forced;
    if (sharded_) {
      // Sharded runs are batch-only; materialize the replayed schedule.
      built.arrivals = DrainStream(*request_.arrival_stream);
      arrivals = &built.arrivals;
    } else {
      stream = std::move(request_.arrival_stream);
    }
  } else if (arrivals != nullptr) {
    forced_ = request_.forced;
  } else if (spec_.IsOpenSystem()) {
    ScenarioSpec::OpenWorkload ow = spec_.Open();
    stream = std::move(ow.stream);
    forced_ = ow.forced;
  } else {
    built = spec_.BuildWorkload();
    arrivals = &built.arrivals;
    forced_ = built.forced;
  }

  if (sharded_) {
    UNICC_CHECK(stream == nullptr);  // enforced by Create
    sharded_engine_ = std::make_unique<ShardedEngine>(
        spec_.engine, [this](std::uint32_t s) { return MakeCallbacks(s); });
    for (std::uint32_t s = 0; s < shards_; ++s) {
      InstallPolicy(s, sharded_engine_->shard(s));
    }
    UNICC_CHECK(sharded_engine_->AddWorkload(*arrivals).ok());
    report.setup_s = SecondsSince(&mark);
    report.summary = sharded_engine_->Run();
    report.simulate_s = SecondsSince(&mark);
    report.stats = ExtractStats(*sharded_engine_, report.summary);
    report.verify_s = SecondsSince(&mark);
    report.stats.peak_rss_kb = PeakRssKb();
    report.events_run = sharded_engine_->TotalEventsRun();
    report.shards = shards_;
    std::uint64_t expired_in_flight = 0;
    for (std::uint32_t s = 0; s < shards_; ++s) {
      expired_in_flight += sharded_engine_->shard(s).expired_count();
    }
    report.status = CheckAccounting(report.stats, expired_in_flight,
                                    sharded_engine_->timeline());
    return report;
  }

  EngineBuilder builder(spec_.engine);
  builder.WithCallbacks(MakeCallbacks(0));
  if (stream != nullptr) builder.WithArrivalStream(std::move(stream));
  auto engine = builder.Build();
  UNICC_CHECK_MSG(engine.ok(), "engine build failed after validation");
  engine_ = std::move(engine).value();
  InstallPolicy(0, *engine_);
  if (arrivals != nullptr) {
    UNICC_CHECK(engine_->AddWorkload(*arrivals).ok());
  }
  report.setup_s = SecondsSince(&mark);
  const EngineOptions::WatchdogControls& wd = spec_.engine.watchdog;
  if (wd.run_deadline != 0 || wd.stall_window != 0) {
    report.status = RunWatched(wd);
    report.summary = engine_->Summarize();
  } else {
    report.summary = engine_->Run();
  }
  report.simulate_s = SecondsSince(&mark);
  report.stats = ExtractStats(*engine_, report.summary);
  report.verify_s = SecondsSince(&mark);
  report.stats.peak_rss_kb = PeakRssKb();
  report.events_run = engine_->simulator().EventsRun();
  report.shards = 1;
  // A watchdog-cancelled run is partial: its identities need not hold.
  if (report.status.ok()) {
    report.status = CheckAccounting(report.stats, engine_->expired_count(),
                                    engine_->timeline());
  }
  return report;
}

// Drives the classic engine in windows so a wedged or runaway run can be
// cancelled cleanly instead of hanging in Engine::Run(). Two tripwires:
//   - run_deadline: wall-clock budget for the whole run (checked between
//     windows; the only nondeterministic control, by design);
//   - stall_window: simulated time without a single commit or expiry. The
//     loop advances in stall_window-sized slices, so a stall is detected
//     deterministically after between one and two windows of no progress.
Status RunSession::RunWatched(const EngineOptions::WatchdogControls& wd) {
  // Without stall detection, slice just often enough to check the clock.
  const Duration slice =
      wd.stall_window != 0 ? wd.stall_window : 100 * kMillisecond;
  const auto wall_start = std::chrono::steady_clock::now();
  engine_->BeginShardRun();
  std::uint64_t progress =
      engine_->committed_count() + engine_->expired_count();
  SimTime cursor = 0;
  SimTime progress_at = 0;  // slice boundary when progress was last seen
  while (engine_->NextEventTime() != Simulator::kNoPending) {
    cursor = std::max(cursor, engine_->NextEventTime()) + slice;
    engine_->RunWindow(cursor + 1);  // runs every event with ts <= cursor
    const std::uint64_t now_progress =
        engine_->committed_count() + engine_->expired_count();
    if (now_progress > progress) {
      progress = now_progress;
      progress_at = cursor;
    } else if (wd.stall_window != 0 &&
               cursor - progress_at >= wd.stall_window) {
      engine_->ForceStop();
      return Status::FailedPrecondition(
          "run stalled: no commit or expiry for " +
          std::to_string((cursor - progress_at) / kMillisecond) +
          " ms of simulated time (last progress: " +
          std::to_string(engine_->last_commit() / kMillisecond) +
          " ms, committed " + std::to_string(engine_->committed_count()) +
          ", expired " + std::to_string(engine_->expired_count()) +
          " of " + std::to_string(engine_->admitted()) + " admitted)");
    }
    if (wd.run_deadline != 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start);
      if (static_cast<Duration>(elapsed.count()) >= wd.run_deadline) {
        engine_->ForceStop();
        return Status::FailedPrecondition(
            "run deadline exceeded: " +
            std::to_string(wd.run_deadline / kMillisecond) +
            " ms of wall clock (last progress: " +
            std::to_string(engine_->last_commit() / kMillisecond) +
            " ms simulated, committed " +
            std::to_string(engine_->committed_count()) + ", expired " +
            std::to_string(engine_->expired_count()) + " of " +
            std::to_string(engine_->admitted()) + " admitted)");
      }
    }
  }
  return Status::OK();
}

const RunMetrics& RunSession::metrics() const {
  return sharded_ ? sharded_engine_->metrics() : engine_->metrics();
}

const TimelineRecorder* RunSession::timeline() const {
  return sharded_ ? sharded_engine_->timeline() : engine_->timeline();
}

const ParamEstimator& RunSession::estimator(std::uint32_t shard) const {
  UNICC_CHECK(shard < estimators_.size());
  return *estimators_[shard];
}

}  // namespace unicc::runner
