#include "harness.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <unordered_set>
#include <utility>

#include "engine/builder.h"
#include "runner/runner.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"
#include "selector/selector.h"
#include "stl/estimators.h"
#include "workload/stream.h"

#ifndef UNICC_BENCH_WORKLOAD_DIR
#error "UNICC_BENCH_WORKLOAD_DIR must name benchmark/workloads"
#endif

namespace unicc::bench {

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"adaptive_hotspot", "adaptive_hotspot.ini",
       "min-STL selection under alternating calm/contention phases: the "
       "paper's mechanism; wall time is mostly the selector",
       16, 1, {{"class main", "txns", "300"}}},
      {"ycsb_long", "ycsb_long.ini",
       "long read-mostly 2PL run over a 131k-item keyspace that fits in "
       "cache: event loop, network, queue manager and detector rounds",
       1, 1, {{"class ops", "txns", "1500"}}},
      {"ycsb_sweep_sf64", "ycsb_sweep_sf64.ini",
       "grid of short cells over an 8.4M-item keyspace larger than cache: "
       "each cell pays set-up and the replica verify once",
       3, 1, {{"class ops", "txns", "250"}}},
      {"overload_open", "overload_open.ini",
       "open-loop streaming admission at 2x capacity: admission gate, "
       "deadline shedding, retries and a write-heavy queue manager",
       1, 1, {{"run", "horizon_ms", "2500"}}},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

std::string WorkloadPath(const WorkloadDef& def) {
  return std::string(UNICC_BENCH_WORKLOAD_DIR) + "/" + def.ini;
}

std::uint64_t CellSeed(std::uint64_t base, std::uint32_t cell) {
  return base + cell * 0x9e3779b97f4a7c15ULL;
}

// FNV-1a over the deterministic outcome counters of one simulation. The
// same fields come out of runner::RunReport, so the two assemblies can be
// compared.
struct Outcome {
  std::uint64_t committed = 0;
  std::uint64_t victims = 0;
  std::uint64_t reject_restarts = 0;
  std::uint64_t backoff_rounds = 0;
  std::uint64_t by_proto[kNumProtocols] = {0, 0, 0};
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t retried = 0;
  std::uint64_t goodput = 0;
};

std::uint64_t Digest(const Outcome& o) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(o.committed);
  mix(o.victims);
  mix(o.reject_restarts);
  mix(o.backoff_rounds);
  for (std::uint64_t c : o.by_proto) mix(c);
  mix(o.admitted);
  mix(o.shed);
  mix(o.expired);
  mix(o.retried);
  mix(o.goodput);
  return h;
}

// Counts the arrivals the engine pulls (inside the admission horizon) and,
// in traced runs, times each pull. The engine destroys its stream when it
// closes admission, so the count lives outside the decorator.
class MeteredStream final : public ArrivalStream {
 public:
  MeteredStream(std::unique_ptr<ArrivalStream> inner, SimTime horizon,
                std::uint64_t* offered, CallStat* timer)
      : inner_(std::move(inner)),
        horizon_(horizon),
        offered_(offered),
        timer_(timer) {}

  bool Next(Arrival* out) override {
    bool more;
    if (timer_ != nullptr) {
      const Clock::time_point t0 = Clock::now();
      more = inner_->Next(out);
      timer_->Add(ElapsedNs(t0));
    } else {
      more = inner_->Next(out);
    }
    if (more && (horizon_ == 0 || out->when <= horizon_)) ++*offered_;
    return more;
  }

 private:
  std::unique_ptr<ArrivalStream> inner_;
  SimTime horizon_;
  std::uint64_t* offered_;
  CallStat* timer_;
};

// Replaces `*f` (if set) by a wrapper that times every call into `stat`.
template <typename... Args>
void TimeCalls(std::function<void(Args...)>* f, CallStat* stat) {
  if (!*f) return;
  *f = [inner = std::move(*f), stat](Args... args) {
    const Clock::time_point t0 = Clock::now();
    inner(args...);
    stat->Add(ElapsedNs(t0));
  };
}

// Loads the workload's scenario with the smoke overrides applied.
StatusOr<ScenarioSpec> LoadSpec(const WorkloadDef& def, bool smoke) {
  auto ini = IniFile::ReadFile(WorkloadPath(def));
  if (!ini.ok()) return ini.status();
  IniFile file = std::move(ini).value();
  if (smoke) {
    for (const Override& o : def.smoke) file.Set(o.section, o.key, o.value);
  }
  return ScenarioSpec::FromIni(file);
}

void Fail(RunResult* out, const std::string& what, std::uint32_t cell) {
  out->failures.push_back("cell " + std::to_string(cell) + ": " + what);
}

// Runs (or, with options.setup_only, only sets up) one cell and adds its
// measurements to `out`.
void RunCell(const WorkloadDef& def, const RunOptions& options,
             std::uint32_t cell, RunResult* out) {
  Probes* probes = options.probes;
  double mark = NowSeconds();
  const double cell_start = mark;
  // Closes the phase that started at `mark`: adds it to `*acc` and, when
  // tracing, records its span.
  auto phase = [&](const char* name, double* acc) {
    const double now = NowSeconds();
    *acc += now - mark;
    if (options.trace != nullptr) {
      options.trace->AddSpan(
          Span{name, def.name, static_cast<int>(cell), mark, now - mark});
    }
    mark = now;
  };

  // --- scenario.parse ---------------------------------------------------
  StatusOr<ScenarioSpec> loaded = LoadSpec(def, options.smoke);
  if (!loaded.ok()) {
    Fail(out, "scenario: " + loaded.status().ToString(), cell);
    return;
  }
  ScenarioSpec spec = std::move(loaded).value();
  spec.engine.seed = CellSeed(options.seed.value_or(spec.engine.seed), cell);
  phase("scenario.parse", &out->parse_s);

  // --- workload.generate ------------------------------------------------
  std::vector<Arrival> arrivals;
  std::shared_ptr<const std::unordered_set<TxnId>> forced;
  std::unique_ptr<ArrivalStream> stream;
  std::uint64_t streamed = 0;
  if (spec.IsOpenSystem()) {
    ScenarioSpec::OpenWorkload open = spec.Open();
    forced = std::move(open.forced);
    stream = std::make_unique<MeteredStream>(
        std::move(open.stream), spec.engine.run.time_horizon, &streamed,
        probes != nullptr ? &probes->stream_next : nullptr);
  } else {
    ScenarioSpec::Workload built = spec.BuildWorkload();
    arrivals = std::move(built.arrivals);
    forced = std::move(built.forced);
  }
  phase("workload.generate", &out->generate_s);

  // --- engine.build -----------------------------------------------------
  // The estimator and selector outlive the engine whose callbacks and
  // policy point at them (locals are destroyed in reverse order).
  ParamEstimator estimator;
  estimator.SetDecayWindow(spec.policy.estimator_window);
  std::unique_ptr<MinStlSelector> selector;
  EngineCallbacks callbacks = runner::EstimatorCallbacks(&estimator);
  ProtocolPolicy base;
  switch (spec.policy.kind) {
    case ScenarioPolicy::Kind::kFixed:
      base = FixedProtocol(spec.policy.fixed);
      break;
    case ScenarioPolicy::Kind::kMinStl: {
      // The selector needs the engine's clock, so it is created after
      // Build(); the policy reaches it through `selector`.
      CallStat* stat = probes != nullptr ? &probes->selector_choose : nullptr;
      base = [&selector, stat](const TxnSpec& s) {
        UNICC_CHECK(selector != nullptr);
        if (stat == nullptr) return selector->Choose(s);
        const Clock::time_point t0 = Clock::now();
        const Protocol p = selector->Choose(s);
        stat->Add(ElapsedNs(t0));
        return p;
      };
      break;
    }
    default:
      Fail(out, "policy kind not supported by the benchmark", cell);
      return;
  }
  if (probes != nullptr) {
    CallStat* s = &probes->stl_intake;
    TimeCalls(&callbacks.on_commit, s);
    TimeCalls(&callbacks.on_request_sent, s);
    TimeCalls(&callbacks.on_lock_hold, s);
    TimeCalls(&callbacks.on_restart, s);
    TimeCalls(&callbacks.on_grant, s);
    TimeCalls(&callbacks.on_reject, s);
    TimeCalls(&callbacks.on_backoff_offer, s);
  }
  EngineBuilder builder(spec.engine);
  builder.WithCallbacks(std::move(callbacks))
      .WithProtocolPolicy(ForcedAwarePolicy(std::move(base), forced));
  if (stream != nullptr) builder.WithArrivalStream(std::move(stream));
  StatusOr<std::unique_ptr<Engine>> built = builder.Build();
  if (!built.ok()) {
    Fail(out, "engine: " + built.status().ToString(), cell);
    return;
  }
  std::unique_ptr<Engine> engine = std::move(built).value();
  if (spec.policy.kind == ScenarioPolicy::Kind::kMinStl) {
    selector = std::make_unique<MinStlSelector>(
        &engine->simulator(), &estimator,
        static_cast<std::size_t>(spec.engine.num_items) *
            spec.engine.replication);
  }
  phase("engine.build", &out->build_s);

  // --- engine.admit -----------------------------------------------------
  if (!arrivals.empty()) {
    if (Status s = engine->AddWorkload(arrivals); !s.ok()) {
      Fail(out, "admission: " + s.ToString(), cell);
      return;
    }
  }
  phase("engine.admit", &out->admit_s);
  if (options.setup_only) return;

  // --- engine.run, storage.verify_replicas, serializability.check -------
  const RunSummary summary = engine->Run();
  phase("engine.run", &out->run_s);
  const bool consistent = engine->ReplicasConsistent();
  phase("storage.verify_replicas", &out->verify_s);
  const bool serializable = engine->CheckSerializability().serializable;
  phase("serializability.check", &out->check_s);
  out->wall_s += mark - cell_start;

  // --- outcomes and counts (outside the timed phases) -------------------
  const RunMetrics& m = engine->metrics();
  Outcome o;
  o.committed = summary.committed;
  o.victims = summary.deadlock_victims;
  o.reject_restarts = summary.reject_restarts;
  o.backoff_rounds = summary.backoff_rounds;
  o.admitted = summary.admitted;
  o.shed = m.shed();
  o.expired = m.expired();
  o.retried = m.retried();
  o.goodput = m.goodput_committed();
  std::uint64_t proto_sum = 0;
  for (int p = 0; p < kNumProtocols; ++p) {
    const ProtocolStats& ps = m.ForProtocol(static_cast<Protocol>(p));
    o.by_proto[p] = ps.committed;
    proto_sum += ps.committed;
    out->restarts += ps.restarts;
    if (selector != nullptr) {
      out->chose[p] += selector->selections(static_cast<Protocol>(p));
    }
  }
  out->cell_digests.push_back(Digest(o));

  // Items the workload touches: exact for batch workloads, the whole
  // keyspace (an upper bound) for streamed ones.
  std::uint64_t offered = streamed;
  std::uint64_t touched_items = spec.engine.num_items;
  if (!spec.IsOpenSystem()) {
    offered = arrivals.size();
    std::vector<bool> seen(spec.engine.num_items);
    touched_items = 0;
    for (const Arrival& a : arrivals) {
      for (const auto* set : {&a.spec.read_set, &a.spec.write_set}) {
        for (ItemId item : *set) {
          if (!seen[item]) ++touched_items;
          seen[item] = true;
        }
      }
    }
  }
  out->offered += offered;
  out->touched_copies += touched_items * spec.engine.replication;
  out->committed += o.committed;
  out->goodput += o.goodput;
  out->shed += o.shed;
  out->expired += o.expired;
  out->retried += o.retried;
  out->victims += o.victims;
  out->reject_restarts += o.reject_restarts;
  out->backoff_rounds += o.backoff_rounds;
  out->makespan += summary.makespan;
  out->system_time.Merge(m.SystemTime());
  out->latency_samples += std::min<std::uint64_t>(m.SystemTime().count(),
                                                  DurationStat::kMaxSamples);
  out->events += engine->simulator().EventsRun();
  out->msgs_total += engine->transport().TotalMessages();
  out->msgs_remote += engine->transport().RemoteMessages();
  for (std::size_t k = 0; k < std::size(out->msgs_by_kind); ++k) {
    out->msgs_by_kind[k] +=
        engine->transport().MessagesOfKind(static_cast<MessageKind>(k));
  }
  out->log_records += engine->log().TotalRecords();
  out->data_sites = spec.engine.num_data_sites;

  // --- self-checks --------------------------------------------------------
  if (!serializable) Fail(out, "history is not serializable", cell);
  if (!consistent) Fail(out, "replicas disagree", cell);
  if (proto_sum != o.committed) {
    Fail(out, "per-protocol commits do not sum to committed", cell);
  }
  if (spec.IsOpenSystem()) {
    if (o.committed + o.expired + (o.shed - o.retried) != offered) {
      Fail(out,
           "open accounting: committed + expired + (shed - retried) = " +
               std::to_string(o.committed + o.expired + o.shed - o.retried) +
               ", offered = " + std::to_string(offered),
           cell);
    }
  } else if (o.committed != offered) {
    Fail(out,
         "batch accounting: committed = " + std::to_string(o.committed) +
             ", offered = " + std::to_string(offered),
         cell);
  }
}

}  // namespace

RunResult RunWorkload(const WorkloadDef& def, const RunOptions& options) {
  RunResult out;
  const std::uint32_t cells = options.smoke ? def.smoke_cells : def.cells;
  for (std::uint32_t c = 0; c < cells; ++c) RunCell(def, options, c, &out);
  return out;
}

Status CheckAgainstRunSession(const WorkloadDef& def,
                              std::optional<std::uint64_t> seed) {
  RunOptions options;
  options.seed = seed;
  options.smoke = true;
  RunResult mine;
  RunCell(def, options, 0, &mine);
  if (!mine.failures.empty()) {
    return Status::Internal("harness run failed: " + mine.failures[0]);
  }

  StatusOr<ScenarioSpec> spec = LoadSpec(def, /*smoke=*/true);
  if (!spec.ok()) return spec.status();
  runner::RunRequest request;
  request.spec = &spec.value();
  request.seed = CellSeed(seed.value_or(spec->engine.seed), 0);
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) return session.status();
  const runner::RunReport report = (*session)->Run();
  if (!report.status.ok()) return report.status;

  const runner::RunStats& st = report.stats;
  Outcome o;
  o.committed = st.committed;
  o.victims = st.deadlock_victims;
  o.reject_restarts = st.reject_restarts;
  o.backoff_rounds = st.backoff_rounds;
  for (int p = 0; p < kNumProtocols; ++p) {
    o.by_proto[p] = st.committed_by_proto[p];
  }
  o.admitted = st.admitted;
  o.shed = st.shed;
  o.expired = st.expired;
  o.retried = st.retried;
  o.goodput = st.goodput;
  if (Digest(o) != mine.cell_digests[0]) {
    return Status::Internal(
        "RunSession and the benchmark's assembly disagree (committed " +
        std::to_string(st.committed) + " vs " +
        std::to_string(mine.committed) + ")");
  }
  if (!st.serializable || !st.replicas_consistent) {
    return Status::Internal("RunSession run failed its own checks");
  }
  return Status::OK();
}

}  // namespace unicc::bench
