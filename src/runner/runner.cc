#include "runner/runner.h"

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

}  // namespace

RunStats ExtractStats(Engine& engine, const RunSummary& summary) {
  RunStats out;
  out.mean_s_ms = engine.metrics().MeanSystemTimeMs();
  out.p95_s_ms = engine.metrics().SystemTime().PercentileMs(95);
  out.offered = summary.offered;
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
    cc_msgs += engine.transport().MessagesOfKind(k);
  }
  out.cc_msgs_per_txn = summary.committed == 0
                            ? 0
                            : static_cast<double>(cc_msgs) /
                                  static_cast<double>(summary.committed);
  out.throughput = engine.metrics().ThroughputPerSec(summary.makespan);
  const SerializabilityReport ser = engine.CheckSerializability();
  out.serializable = ser.serializable;
  out.checked_txns = ser.num_txns;
  out.held_txns = engine.log().Held();
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

Status CheckAccounting(const RunStats& stats, std::uint64_t expired_in_flight,
                       bool admission_closed,
                       const TimelineRecorder* timeline) {
  if (stats.committed + expired_in_flight != stats.admitted) {
    return Status::FailedPrecondition(
        "accounting: committed + expired != admitted (" +
        std::to_string(stats.committed) + " + " +
        std::to_string(expired_in_flight) + " != " +
        std::to_string(stats.admitted) + ")");
  }
  const std::uint64_t ended =
      stats.committed + stats.expired + (stats.shed - stats.retried);
  if (!admission_closed && ended != stats.offered) {
    return Status::FailedPrecondition(
        "accounting: committed + expired + (shed - retried) != offered (" +
        std::to_string(ended) + " != " + std::to_string(stats.offered) + ")");
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
  if (stats.checked_txns != stats.committed) {
    return Status::FailedPrecondition(
        "serializability: checked " + std::to_string(stats.checked_txns) +
        " transactions, committed " + std::to_string(stats.committed));
  }
  if (stats.serializable && stats.held_txns != 0) {
    return Status::FailedPrecondition(
        "serializability: a serializable history left " +
        std::to_string(stats.held_txns) + " transactions held");
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

RunSession::RunSession(RunRequest request)
    : request_(std::move(request)), spec_(*request_.spec) {
  if (request_.seed.has_value()) spec_.engine.seed = *request_.seed;
}

RunSession::~RunSession() = default;

StatusOr<std::unique_ptr<RunSession>> RunSession::Create(RunRequest request) {
  if (request.spec == nullptr) {
    return Status::InvalidArgument("RunRequest needs a scenario spec");
  }
  if (request.arrival_stream == nullptr && request.forced != nullptr) {
    return Status::InvalidArgument(
        "a forced-protocol set only makes sense with an arrival stream");
  }
  auto session = std::unique_ptr<RunSession>(new RunSession(std::move(request)));
  if (Status s = session->spec_.engine.Validate(); !s.ok()) return s;
  if (Status s = ValidateBackend(session->spec_); !s.ok()) return s;
  return session;
}

EngineCallbacks RunSession::MakeCallbacks() {
  estimator_.SetDecayWindow(spec_.policy.estimator_window);
  EngineCallbacks callbacks = EstimatorCallbacks(&estimator_);
  if (spec_.policy.kind == ScenarioPolicy::Kind::kMinAvgTime) {
    MinAvgTimeSelector* n = &naive_;
    auto inner = callbacks.on_commit;
    callbacks.on_commit = [n, inner](const TxnResult& r) {
      n->OnCommit(r);
      if (inner) inner(r);
    };
  }
  return callbacks;
}

ProtocolPolicy RunSession::MakePolicy() {
  switch (spec_.policy.kind) {
    case ScenarioPolicy::Kind::kFixed:
      return FixedProtocol(spec_.policy.fixed);
    case ScenarioPolicy::Kind::kMix:
      return MixedProtocol(spec_.policy.weights[0], spec_.policy.weights[1],
                           spec_.policy.weights[2],
                           Rng(spec_.engine.seed ^ 77));
    case ScenarioPolicy::Kind::kMinStl:
      return [this](const TxnSpec& spec) { return selector_->Choose(spec); };
    case ScenarioPolicy::Kind::kMinAvgTime:
      return [this](const TxnSpec& spec) { return naive_.Choose(spec); };
    case ScenarioPolicy::Kind::kTrace:
      break;
  }
  return nullptr;  // spec protocols used verbatim
}

RunReport RunSession::Run() {
  UNICC_CHECK_MSG(!ran_, "RunSession::Run may only be called once");
  ran_ = true;
  RunReport report;
  auto mark = std::chrono::steady_clock::now();

  // Resolve the workload (and its forced-protocol set); workload
  // generation draws from its own rng streams, not the engine's.
  std::unique_ptr<ArrivalStream> stream = std::move(request_.arrival_stream);
  if (stream != nullptr) {
    forced_ = request_.forced;
  } else {
    ScenarioSpec::OpenWorkload ow = spec_.Open();
    stream = std::move(ow.stream);
    forced_ = std::move(ow.forced);
  }
  // An open system streams the workload through its [run] controls.
  const bool open = spec_.IsOpenSystem();

  EngineBuilder builder(spec_.engine);
  builder.WithCallbacks(MakeCallbacks())
      .WithProtocolPolicy(ForcedAwarePolicy(MakePolicy(), forced_));
  if (open) builder.WithArrivalStream(std::move(stream));
  auto engine = builder.Build();
  UNICC_CHECK_MSG(engine.ok(), "engine build failed after validation");
  engine_ = std::move(engine).value();
  if (spec_.policy.kind == ScenarioPolicy::Kind::kMinStl) {
    selector_ = std::make_unique<MinStlSelector>(
        &engine_->simulator(), &estimator_,
        static_cast<std::size_t>(spec_.engine.num_items) *
            spec_.engine.replication);
  }
  if (!open) {
    // A closed system is admitted as a batch before the run, each arrival
    // reserving its sequence number as it is queued; pulled during the
    // run, each would draw one after events scheduled in between, and
    // ties would break differently. One Arrival is reused throughout, so
    // the stream draws into the capacity its access sets already have. A
    // stream that fails, or an arrival that does not fit the cluster,
    // stops the run before it starts.
    Arrival a;
    while (report.status.ok() && stream->Next(&a)) {
      report.status = engine_->AddTransaction(a.when, a.spec);
    }
    if (report.status.ok()) report.status = stream->status();
    if (!report.status.ok()) return report;
    stream.reset();
  }
  report.setup_s = SecondsSince(&mark);
  report.summary = engine_->Run();
  report.simulate_s = SecondsSince(&mark);
  report.stats = ExtractStats(*engine_, report.summary);
  report.verify_s = SecondsSince(&mark);
  report.stats.peak_rss_kb = PeakRssKb();
  report.events_run = engine_->simulator().EventsRun();
  report.status = report.summary.status;
  // A watchdog-cancelled run is partial: its identities need not hold.
  if (report.status.ok()) {
    report.status = CheckAccounting(report.stats, engine_->expired_count(),
                                    engine_->admission_closed(),
                                    engine_->timeline());
  }
  return report;
}

const RunMetrics& RunSession::metrics() const { return engine_->metrics(); }

const TimelineRecorder* RunSession::timeline() const {
  return engine_->timeline();
}

}  // namespace unicc::runner
