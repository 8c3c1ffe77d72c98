// The distributed-DBMS engine: instantiates sites (request issuers at user
// sites, queue managers at data sites, a deadlock detector at its own
// site), wires them over the simulated network, admits transactions and
// runs the event loop to completion.
//
// Site numbering: user sites [0, U), data sites [U, U+D), detector at U+D.
#ifndef UNICC_ENGINE_ENGINE_H_
#define UNICC_ENGINE_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/backend.h"
#include "cc/unified/issuer.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/admission.h"
#include "engine/config.h"
#include "engine/shard.h"
#include "metrics/metrics.h"
#include "metrics/timeline.h"
#include "serializability/conflict_graph.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "storage/log.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace unicc {

class ShardBus;
class ShardedTransport;

// Wiring for one shard of a sharded run (owned by ShardedEngine). The
// default state (plan == nullptr) selects the classic unsharded engine;
// with a plan installed the engine instantiates only the sites its shard
// owns and routes cross-shard messages through the bus.
struct ShardContext {
  std::uint32_t shard = 0;
  const ShardPlan* plan = nullptr;
  ShardBus* bus = nullptr;
  ShardDirectory* directory = nullptr;
  // When set, the central detector polls this coordinator-owned flag
  // instead of the engine-local one: a shard must not silence the global
  // detector just because its own transactions all committed.
  const bool* global_stop = nullptr;
};

// Optional external observers (the STL parameter estimator subscribes).
struct EngineCallbacks {
  std::function<void(const TxnResult&)> on_commit;
  std::function<void(Protocol, OpType)> on_request_sent;
  std::function<void(Protocol, Duration, bool aborted)> on_lock_hold;
  std::function<void(Protocol, TxnOutcome)> on_restart;
  std::function<void(const CopyId&, OpType, Protocol)> on_grant;
  std::function<void(OpType, Protocol)> on_reject;
  std::function<void(OpType)> on_backoff_offer;
};

// Summary of a completed run.
struct RunSummary {
  std::uint64_t admitted = 0;
  std::uint64_t committed = 0;
  // Overload-control outcomes: shed at the admission gate, expired past a
  // deadline (parked or in flight).
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  SimTime makespan = 0;          // time of the last commit
  std::uint64_t total_messages = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t deadlock_victims = 0;
  std::uint64_t reject_restarts = 0;
  std::uint64_t backoff_rounds = 0;
  double mean_system_time_ms = 0;
};

class Engine {
 public:
  // Prefer EngineBuilder (engine/builder.h), which validates the options
  // and returns Status instead of aborting on invalid configurations.
  explicit Engine(EngineOptions options, EngineCallbacks callbacks = {},
                  ShardContext shard = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Admits one transaction at absolute simulated time `when`. `spec.home`
  // must be a valid user site; `spec.protocol` is used as-is unless a
  // protocol policy is installed.
  Status AddTransaction(SimTime when, TxnSpec spec);

  // Installs a per-transaction compute function (before its arrival).
  // Deprecated as a post-construction mutator: prefer staging compute
  // functions through EngineBuilder so the engine is fully configured
  // before the first event runs.
  void SetCompute(TxnId txn, ComputeFn fn);

  // Applied at admission time to (re)choose each transaction's protocol;
  // the dynamic selector plugs in here. Deprecated as a post-construction
  // mutator: prefer EngineBuilder::WithProtocolPolicy.
  void SetProtocolPolicy(ProtocolPolicy policy);

  // Convenience: admit a whole generated workload (closed-batch mode:
  // every arrival is scheduled up front).
  Status AddWorkload(const std::vector<WorkloadGenerator::Arrival>& arrivals);

  // Open-system mode: the engine pulls arrivals from `stream` lazily, one
  // scheduled ahead at any time, so arbitrarily long streams need O(1)
  // admission memory. Arrival times must be nondecreasing and specs valid
  // (scenario- and generator-built streams are). Admission is bounded by
  // options().run: `time_horizon` and `commit_target` close the gate,
  // `max_inflight` holds an arrival at the gate until a commit frees a
  // slot (it is then admitted at that commit's time). Call before Run();
  // batch arrivals added via AddWorkload interleave with the stream.
  // Deprecated as a post-construction mutator: prefer
  // EngineBuilder::WithArrivalStream.
  void SetArrivalStream(std::unique_ptr<ArrivalStream> stream);

  // Runs the event loop until every admitted transaction committed, the
  // arrival stream (if any) is exhausted or closed by a run control, and
  // all residual protocol traffic drained. Returns the summary.
  RunSummary Run();

  // --- post-run inspection --------------------------------------------
  const RunMetrics& metrics() const { return metrics_; }
  // Windowed time-series, or nullptr when options().metrics_window is 0.
  const TimelineRecorder* timeline() const { return timeline_.get(); }
  const ImplementationLog& log() const { return log_; }
  SerializabilityReport CheckSerializability() const;
  // Reads the value of every copy of `item`; all replicas must agree at
  // quiescence under read-one/write-all.
  std::vector<std::uint64_t> ReadReplicas(ItemId item) const;
  // True iff they do for every item. Visits written copies only, so the
  // cost scales with the data the run wrote, not with the keyspace.
  bool ReplicasConsistent() const;

  Simulator& simulator() { return sim_; }
  SimTransport& transport() { return *transport_; }
  const Catalog& catalog() const { return *catalog_; }
  const EngineOptions& options() const { return options_; }
  // Non-null iff topology/fault injection is enabled (or forced for the
  // transport-equivalence tests).
  const FaultModel* fault_model() const { return fault_model_.get(); }

  std::uint64_t deadlock_victim_count() const;
  SiteId detector_site() const { return detector_site_; }

  // --- sharded-run interface (driven by ShardedEngine) ------------------
  // Mirrors Run()'s head: marks the engine stoppable when nothing is
  // pending, so detector ticks do not spin an empty shard forever. Call
  // once before the first RunWindow.
  void BeginShardRun();
  // Runs every event with timestamp < end (the conservative window);
  // returns the number executed.
  std::uint64_t RunWindow(SimTime end) { return sim_.RunUntil(end - 1); }
  // Stops detector ticks from rescheduling so the shard can drain.
  void ForceStop() { stopped_ = true; }
  SimTime NextEventTime() const { return sim_.NextEventTime(); }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t committed_count() const { return committed_count_; }
  // Admitted transactions expired past their deadline (overload control);
  // committed + expired == admitted once a run drains.
  std::uint64_t expired_count() const { return expired_count_; }
  SimTime last_commit() const { return last_commit_; }
  const CommittedSet& committed_set() const { return committed_; }
  // Per-shard summary of a drained run (Run()'s tail, without the event
  // loop).
  RunSummary Summarize() const;
  // The store of one data site, which must be owned by this shard.
  const Store& StoreAt(SiteId site) const;
  // Reads one physical copy; the copy's site must be owned by this shard.
  std::uint64_t ReadCopy(const CopyId& copy) const;
  // Non-null iff this engine is a shard (the transport downcast the
  // coordinator uses to inject drained envelopes).
  ShardedTransport* sharded_transport() { return sharded_transport_; }

  // Human-readable dump of all non-empty data queues and in-flight
  // transactions (debugging/observability).
  std::string DebugDump() const;

 private:
  void BuildSites();
  // True when this engine is one shard of a ShardedEngine run.
  bool IsShard() const { return shard_ctx_.plan != nullptr; }
  // True when this engine instantiates `site` (always, unless sharded).
  bool OwnsSite(SiteId site) const {
    return !IsShard() || shard_ctx_.plan->Owns(shard_ctx_.shard, site);
  }
  // The detectors' txn -> (protocol, home) view: local admissions first,
  // then the cross-shard directory.
  TxnDirectory MakeDirectory();
  Status ValidateSpec(const TxnSpec& spec) const;
  // Runs at a transaction's arrival time: applies the protocol policy and
  // hands the pooled spec to its home issuer.
  void Admit(std::size_t pool_index);
  // Shared admission tail (policy application, directory entry, Begin).
  // `arrival` (<= now) is the timestamp system time is measured from; it
  // predates now only for arrivals the MPL cap parked at the gate.
  void AdmitSpec(TxnSpec spec, SimTime arrival);
  // --- streaming admission ---------------------------------------------
  // Pulls the next arrival from the stream and schedules its gate event;
  // closes the stream at exhaustion or past the time horizon.
  void PullNextArrival();
  // The gate event: admits the pending arrival, or parks it when the
  // multiprogramming level is at the cap.
  void OnArrivalDue();
  // Admits the pending arrival now and pulls the next one.
  void AdmitPendingArrival();
  // Drops the stream and any pending arrival (commit target reached or
  // horizon passed).
  void CloseAdmission();
  bool InflightAtCap() const;
  // True while an arrival is still scheduled or parked at the gate.
  bool StreamActive() const {
    return arrival_scheduled_ || arrival_deferred_ ||
           (gate_ != nullptr && !gate_->empty()) || pending_resubmits_ > 0;
  }
  // --- overload control (bounded gate; engaged iff shed_policy != block)
  // Validates and admits one streamed arrival (shared by the pulled-ahead,
  // gate-pop and re-submission paths).
  void AdmitArrival(Arrival arrival);
  // Parks `arrival` in the bounded gate, shedding per policy when full.
  void OfferToGate(Arrival arrival, std::uint32_t resubmits);
  // Pops parked arrivals into freed MPL slots (best-first).
  void AdmitFromGate();
  // A shed victim: count it and schedule a re-submission when configured.
  void HandleShed(AdmissionGate::Entry shed);
  // Expiry of a *parked* entry (never admitted: counts expired in metrics
  // but not against the drain invariant).
  void OnGateDeadline(std::uint64_t seq);
  // Expiry of an *admitted* transaction past its deadline.
  void OnTxnDeadline(TxnId id, SiteId home);
  // An MPL slot was freed by an expiry: refill from the gate, re-check
  // quiescence.
  void OnSlotFreed();
  // Sets stopped_ once all admitted work resolved and no arrival can come.
  void CheckQuiescent() {
    if (committed_count_ + expired_count_ == admitted_ && !StreamActive()) {
      stopped_ = true;
    }
  }
  void RouteToUserSite(SiteId site, SiteId from, const Message& m);
  void RouteToDataSite(SiteId site, SiteId from, const Message& m);
  void RouteToDetectorSite(SiteId from, const Message& m);

  DataSiteBackend* BackendAt(SiteId site);
  RequestIssuer* IssuerAt(SiteId site);

  EngineOptions options_;
  EngineCallbacks callbacks_;
  ShardContext shard_ctx_;
  Rng root_rng_;
  Simulator sim_;
  // Must outlive transport_, which holds a borrowed pointer to it.
  std::unique_ptr<FaultModel> fault_model_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<Catalog> catalog_;
  ImplementationLog log_;
  RunMetrics metrics_;
  std::unique_ptr<TimelineRecorder> timeline_;

  SiteId detector_site_ = 0;
  // Per user/data site; in a sharded engine, unowned sites hold nullptr so
  // site -> index arithmetic stays shard-independent.
  std::vector<std::unique_ptr<RequestIssuer>> issuers_;
  std::vector<std::unique_ptr<DataSiteBackend>> backends_;
  ShardedTransport* sharded_transport_ = nullptr;  // borrowed, see transport_
  std::unique_ptr<CentralDeadlockDetector> central_detector_;
  std::vector<std::unique_ptr<ProbeDeadlockDetector>> probe_detectors_;

  ProtocolPolicy policy_;
  // Admitted specs, batched here so each admission event captures only an
  // index (inline in its event slot) instead of a spec copy; a deque keeps
  // references stable while admissions are still being scheduled.
  std::deque<TxnSpec> admission_pool_;
  // txn -> (home site, protocol): the directory used by detectors.
  struct TxnMeta {
    SiteId home;
    Protocol protocol;
  };
  std::unordered_map<TxnId, TxnMeta> txn_meta_;
  CommittedSet committed_;
  std::uint64_t admitted_ = 0;
  std::uint64_t committed_count_ = 0;
  SimTime last_commit_ = 0;
  bool stopped_ = false;

  // Streaming admission state: at most one pulled-ahead arrival exists at
  // any time (the bounded admission horizon).
  std::unique_ptr<ArrivalStream> stream_;
  Arrival next_arrival_;
  std::uint64_t next_arrival_event_ = 0;
  bool arrival_scheduled_ = false;  // gate event pending in the simulator
  bool arrival_deferred_ = false;   // gate fired, parked by the MPL cap

  // Overload control: non-null iff options_.run.shed_policy != kBlock.
  // With the gate engaged the arrival stream never blocks: arrivals past
  // the MPL cap park here (bounded, shed per policy) and per-class
  // deadlines are enforced on parked and admitted work.
  std::unique_ptr<AdmissionGate> gate_;
  Rng retry_rng_;  // re-submission jitter; independent of root_rng_ forks
  std::uint64_t gate_seq_ = 0;          // seq assigned to gate entries
  std::uint64_t expired_count_ = 0;     // admitted work expired in flight
  std::uint64_t pending_resubmits_ = 0; // shed arrivals awaiting re-offer
  bool admission_closed_ = false;       // commit target reached
  // Pending deadline events of admitted transactions, cancelled on commit
  // so a met deadline leaves no event behind.
  std::unordered_map<TxnId, std::uint64_t> txn_deadline_events_;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_ENGINE_H_
