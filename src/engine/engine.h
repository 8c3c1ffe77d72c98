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
#include "metrics/metrics.h"
#include "metrics/timeline.h"
#include "serializability/online_checker.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "workload/stream.h"

namespace unicc {

// Decides each transaction's protocol at admission; the dynamic selectors
// plug in here. Unset, every transaction keeps its spec's protocol.
using ProtocolPolicy = std::function<Protocol(const TxnSpec&)>;

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
  // Arrivals offered to the engine: batch admissions plus stream arrivals
  // accepted inside the time horizon. Under overload control every offer
  // ends exactly once: committed, expired, or shed without a retry.
  std::uint64_t offered = 0;
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
  // OK for a run that drained. FailedPrecondition when the run watchdog
  // (options().watchdog) cancelled it; the message names the last
  // progress point and the summary describes the partial run.
  // InvalidArgument when the arrival stream failed: it yielded an arrival
  // that does not fit the cluster (the message names the transaction and
  // the field), or ended on bad input. Admission stopped there, and the
  // summary describes the work admitted before it.
  Status status = Status::OK();
};

// Built by EngineBuilder (engine/builder.h), which validates the options
// and hands over the protocol policy and the arrival stream, so the
// engine is fully configured before its first event.
class Engine {
 public:
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Admits one transaction at absolute simulated time `when`. `spec.home`
  // must be a valid user site and every item below num_items, or the
  // InvalidArgument names the transaction and the field; `spec.protocol`
  // is used as-is unless a protocol policy is installed. The spec is
  // copied into the batch FIFO (see AddWorkload), so the caller may reuse
  // it at once. `compute`, if set, computes the transaction's writes from
  // its reads.
  Status AddTransaction(SimTime when, const TxnSpec& spec,
                        ComputeFn compute = nullptr);

  // Convenience: admit a whole generated workload (closed-batch mode).
  // Every spec is validated first, so an invalid one admits none of the
  // batch. Arrivals in nondecreasing time order wait in one FIFO whose
  // front alone is a simulator event, so queued arrivals cost no event
  // slots; the FIFO keeps each spec as a fixed-size record plus its items
  // in a shared pool, so queueing one allocates no block of its own. An
  // arrival earlier than the FIFO's tail gets its own event, which owns a
  // copy of its spec. Either way each arrival is admitted exactly where an
  // event scheduled at this call would have run, ties included.
  Status AddWorkload(const std::vector<Arrival>& arrivals);

  // Runs the event loop until every admitted transaction committed, the
  // arrival stream (if any) is exhausted or closed by a run control, and
  // all residual protocol traffic drained. Returns the summary. With a
  // watchdog knob set (options().watchdog) the loop runs in slices and a
  // wedged or over-budget run is cancelled and reported through the
  // summary's status instead of spinning.
  RunSummary Run();

  // --- post-run inspection --------------------------------------------
  const RunMetrics& metrics() const { return metrics_; }
  // Windowed time-series, or nullptr when options().metrics_window is 0.
  const TimelineRecorder* timeline() const { return timeline_.get(); }
  // The online serializability checker the data sites log into; it keeps
  // only transactions that can still join a conflict cycle, and counts
  // every implemented operation (TotalRecords()).
  const OnlineChecker& log() const { return checker_; }
  // The checker's verdict on the run so far (serializable, cycle,
  // num_txns); cheap after a drained run, which leaves nothing held.
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

  std::uint64_t deadlock_victim_count() const;

  // Admitted transactions expired past their deadline (overload control);
  // committed + expired == admitted once a run drains.
  std::uint64_t expired_count() const { return expired_count_; }
  // True once commit_target closed admission. Parked and pulled-ahead
  // work is then dropped uncounted, so offered arrivals no longer balance.
  bool admission_closed() const { return admission_closed_; }
  // The store of one data site.
  const Store& StoreAt(SiteId site) const;

  // Human-readable dump of all non-empty data queues and in-flight
  // transactions (debugging/observability). Its first line counts pending
  // simulator events and, apart from them, the batch arrivals still
  // waiting for admission (the FIFO's front is both).
  std::string DebugDump() const;

 private:
  friend class EngineBuilder;

  // Open-system mode, when `stream` is set: the engine pulls arrivals
  // from it lazily, one scheduled ahead at any time, so arbitrarily long
  // streams need O(1) admission memory. Arrival times must be
  // nondecreasing and specs valid (scenario-built streams are). Admission
  // is bounded by options().run: `time_horizon` and `commit_target` close
  // the gate, `max_inflight` holds an arrival at the gate until a commit
  // frees a slot (it is then admitted at that commit's time). Batch
  // arrivals added via AddWorkload interleave with the stream.
  Engine(EngineOptions options, EngineCallbacks callbacks,
         ProtocolPolicy policy, std::unique_ptr<ArrivalStream> stream);

  void BuildSites();
  // The watchdog's sliced event loop (Run() with a watchdog knob set).
  // Returns OK if the run drained, or FailedPrecondition naming the last
  // progress point if it was cancelled.
  Status RunWatched();
  RunSummary Summarize() const;
  Status ValidateSpec(const TxnSpec& spec) const;
  // --- closed-batch admission ------------------------------------------
  // Queues a validated batch arrival (AddTransaction, AddWorkload).
  void QueueBatchArrival(SimTime when, const TxnSpec& spec);
  // Schedules the FIFO front's admission event under its reserved number;
  // the event rebuilds the front's spec into batch_spec_, pops it,
  // schedules the next one and admits the spec.
  void ScheduleBatchFront();
  // Shared admission tail (deadline, policy application, Begin); the
  // policy may rewrite `spec.protocol`. `arrival` (<= now) is the
  // timestamp system time is measured from; it predates now only for
  // arrivals the MPL cap parked at the gate.
  void AdmitSpec(TxnSpec& spec, SimTime arrival);
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
  // Cancels the expiry event of an entry leaving the gate unexpired.
  void DisarmGateTimer(const AdmissionGate::Entry& e);
  // A shed victim: count it and schedule a re-submission when configured.
  void HandleShed(AdmissionGate::Entry shed);
  // Expiry of a *parked* entry (never admitted: counts expired in metrics
  // but not against the drain invariant).
  void OnGateDeadline(std::uint64_t seq);
  // Expiry of an *admitted* transaction past its deadline.
  void OnTxnDeadline(TxnId id, SiteId home);
  // Records `event` as `id`'s deadline event, reusing a spare map node.
  void ArmDeadline(TxnId id, std::uint64_t event);
  // Forgets `id`'s deadline event, cancelling it when `cancel`; the map
  // node goes on the spare list.
  void DisarmDeadline(TxnId id, bool cancel);
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
  Rng root_rng_;
  Simulator sim_;
  // Non-null iff options_.fault.Active(). Must outlive transport_, which
  // holds a borrowed pointer to it.
  std::unique_ptr<FaultModel> fault_model_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<Catalog> catalog_;
  OnlineChecker checker_;
  RunMetrics metrics_;
  std::unique_ptr<TimelineRecorder> timeline_;

  SiteId detector_site_ = 0;
  std::vector<std::unique_ptr<RequestIssuer>> issuers_;  // per user site
  std::vector<std::unique_ptr<DataSiteBackend>> backends_;  // per data site
  std::unique_ptr<CentralDeadlockDetector> central_detector_;

  ProtocolPolicy policy_;
  // Compute functions from AddTransaction, each moved to its
  // transaction's home issuer at admission. One whose transaction expires
  // before it begins lives as long as the engine.
  std::unordered_map<TxnId, ComputeFn> compute_;
  // Batch arrivals in nondecreasing time order, each holding the simulator
  // sequence number it reserved when it was added. Only the front has an
  // event; admitted entries are freed as the run proceeds. A record keeps
  // its spec's scalar fields and set sizes; the items themselves follow
  // in batch_items_, read set first, in FIFO order.
  struct BatchArrival {
    SimTime when;
    std::uint64_t seq;
    TxnId id;
    Duration compute_time;
    Timestamp backoff_interval;
    Duration deadline;
    SiteId home;
    std::uint32_t priority;
    std::uint32_t reads;
    std::uint32_t writes;
    Protocol protocol;
  };
  std::deque<BatchArrival> batch_;
  std::deque<ItemId> batch_items_;
  // The spec the FIFO front is rebuilt into at admission; its access sets
  // keep their capacity, so admitting allocates nothing once warm.
  TxnSpec batch_spec_;
  std::uint64_t offered_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t committed_count_ = 0;
  SimTime last_commit_ = 0;
  bool stopped_ = false;

  // Streaming admission state: at most one pulled-ahead arrival exists at
  // any time (the bounded admission horizon).
  std::unique_ptr<ArrivalStream> stream_;
  Status stream_status_;  // why the stream failed, for Run() to report
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
  using DeadlineMap = std::unordered_map<TxnId, std::uint64_t>;
  DeadlineMap txn_deadline_events_;
  // Map nodes of resolved deadlines, inserted again under the next
  // admitted id, so arming a deadline allocates nothing once warm.
  std::vector<DeadlineMap::node_type> spare_deadline_nodes_;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_ENGINE_H_
