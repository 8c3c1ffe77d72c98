#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <variant>

#include "cc/to/to_manager.h"
#include "cc/unified/queue_manager.h"
#include "common/check.h"
#include "storage/replica_check.h"

namespace unicc {

namespace {
// Re-submission jitter stream; independent of root_rng_'s fork sequence,
// so enabling retries never perturbs existing draw order.
constexpr std::uint64_t kRetrySalt = 0x94d049bb133111ebull;
}  // namespace

Engine::Engine(EngineOptions options, EngineCallbacks callbacks,
               ProtocolPolicy policy, std::unique_ptr<ArrivalStream> stream)
    : options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      root_rng_(options_.seed),
      // Ids are unique, so only the home issuer can say yes. Asked only
      // for early T/O reads and records of dead incarnations.
      checker_([this](TxnId txn, std::uint32_t attempt) {
        return std::any_of(issuers_.begin(), issuers_.end(),
                           [&](const std::unique_ptr<RequestIssuer>& i) {
                             return i->IsRunning(txn, attempt);
                           });
      }),
      policy_(std::move(policy)),
      stream_(std::move(stream)),
      retry_rng_(options_.seed ^ kRetrySalt) {
  if (options_.metrics_window > 0) {
    timeline_ = std::make_unique<TimelineRecorder>(options_.metrics_window);
  }
  if (options_.run.shed_policy != ShedPolicy::kBlock) {
    gate_ = std::make_unique<AdmissionGate>(options_.run.queue_limit,
                                            options_.run.shed_policy);
  }
  BuildSites();
  // Pulled last, so the first arrival's event follows every event the
  // sites scheduled.
  if (stream_ != nullptr) PullNextArrival();
}

Engine::~Engine() = default;

DataSiteBackend* Engine::BackendAt(SiteId site) {
  const SiteId idx = site - options_.num_user_sites;
  UNICC_CHECK(idx < backends_.size());
  return backends_[idx].get();
}

RequestIssuer* Engine::IssuerAt(SiteId site) {
  UNICC_CHECK(site < issuers_.size());
  return issuers_[site].get();
}

void Engine::BuildSites() {
  const std::uint32_t num_user = options_.num_user_sites;
  const std::uint32_t num_data = options_.num_data_sites;
  detector_site_ = num_user + num_data;

  if (options_.fault.Active()) {
    // A zero fault seed derives one from the engine seed.
    if (options_.fault.seed == 0) {
      options_.fault.seed = options_.seed ^ kFaultSeedSalt;
    }
    fault_model_ = std::make_unique<FaultModel>(
        options_.fault, options_.network, num_user + num_data + 1);
  }
  // The transport forks the rng with or without a fault model, so enabling
  // faults never perturbs downstream draw order.
  transport_ = std::make_unique<SimTransport>(
      &sim_, options_.network, root_rng_.Fork(), fault_model_.get());

  std::vector<SiteId> data_sites;
  for (std::uint32_t i = 0; i < num_data; ++i) {
    data_sites.push_back(num_user + i);
  }
  auto catalog =
      Catalog::Make(options_.num_items, data_sites, options_.replication);
  UNICC_CHECK(catalog.ok());
  catalog_ = std::make_unique<Catalog>(std::move(catalog).value());

  CcContext ctx;
  ctx.sim = &sim_;
  ctx.transport = transport_.get();
  ctx.log = &checker_;

  CcHooks qm_hooks;
  qm_hooks.on_grant = [this](const CopyId& c, OpType op, Protocol p) {
    if (callbacks_.on_grant) callbacks_.on_grant(c, op, p);
  };
  qm_hooks.on_reject = [this](OpType op, Protocol p) {
    if (callbacks_.on_reject) callbacks_.on_reject(op, p);
  };
  qm_hooks.on_backoff_offer = [this](OpType op) {
    if (callbacks_.on_backoff_offer) callbacks_.on_backoff_offer(op);
  };

  // Data sites: Basic T/O, or the unified queue manager, which reduces to
  // pure 2PL or pure PA when every transaction uses that protocol.
  for (SiteId s : data_sites) {
    std::unique_ptr<DataSiteBackend> backend;
    if (options_.backend == BackendKind::kBasicTo) {
      backend = std::make_unique<BasicToManager>(s, ctx, qm_hooks);
    } else {
      UnifiedQmOptions qm;
      qm.semi_locks = options_.semi_locks;
      backend = std::make_unique<UnifiedQueueManager>(s, ctx, qm, qm_hooks);
    }
    backends_.push_back(std::move(backend));
    transport_->RegisterSite(s, [this, s](SiteId from, const Message& m) {
      RouteToDataSite(s, from, m);
    });
  }

  // User sites.
  IssuerOptions issuer_options;
  issuer_options.default_backoff_interval = options_.default_backoff_interval;
  issuer_options.restart_delay_mean = options_.restart_delay_mean;
  issuer_options.semi_locks =
      options_.semi_locks && options_.backend == BackendKind::kUnified;
  issuer_options.request_timeout = options_.request_timeout;
  for (std::uint32_t u = 0; u < num_user; ++u) {
    if (options_.max_clock_skew > 0) {
      issuer_options.clock_skew =
          root_rng_.UniformInt(options_.max_clock_skew + 1);
    }
    IssuerEvents events;
    events.on_commit = [this](const TxnResult& r) {
      metrics_.OnCommit(r);
      if (timeline_ != nullptr) timeline_->OnCommit(r);
      checker_.OnCommit(r.id, r.attempts, r.num_requests);
      ++committed_count_;
      last_commit_ = sim_.Now();
      // Met its deadline in flight: disarm the expiry event.
      if (!txn_deadline_events_.empty()) DisarmDeadline(r.id, true);
      if (options_.run.commit_target != 0 &&
          committed_count_ >= options_.run.commit_target) {
        CloseAdmission();
      }
      if (arrival_deferred_ && !InflightAtCap()) {
        // A slot freed up: the parked arrival enters at this commit time.
        arrival_deferred_ = false;
        AdmitPendingArrival();
      }
      if (gate_ != nullptr && !admission_closed_) AdmitFromGate();
      CheckQuiescent();
      if (callbacks_.on_commit) callbacks_.on_commit(r);
    };
    events.on_request_sent = [this](Protocol p, OpType op) {
      if (callbacks_.on_request_sent) callbacks_.on_request_sent(p, op);
    };
    events.on_lock_hold = [this](Protocol p, Duration d, bool aborted) {
      if (callbacks_.on_lock_hold) callbacks_.on_lock_hold(p, d, aborted);
    };
    events.on_restart = [this](Protocol p, TxnOutcome why) {
      metrics_.OnRestart(p, why);
      if (timeline_ != nullptr) timeline_->OnRestart(sim_.Now(), p);
      if (callbacks_.on_restart) callbacks_.on_restart(p, why);
    };
    events.on_abort = [this](TxnId txn, Attempt attempt) {
      checker_.OnAbort(txn, attempt);
    };
    issuers_.push_back(std::make_unique<RequestIssuer>(
        u, ctx, catalog_.get(), issuer_options, root_rng_.Fork(), events));
    transport_->RegisterSite(u, [this, u](SiteId from, const Message& m) {
      RouteToUserSite(u, from, m);
    });
  }

  // Deadlock detection.
  transport_->RegisterSite(detector_site_,
                           [this](SiteId from, const Message& m) {
                             RouteToDetectorSite(from, m);
                           });
  if (options_.detector == DetectorKind::kCentral) {
    central_detector_ = std::make_unique<CentralDeadlockDetector>(
        detector_site_, ctx, options_.central_detector, data_sites);
    central_detector_->SetStopFlag(&stopped_);
    central_detector_->Start();
  }

  // Crash events: a crashed *user* site aborts its in-flight, not-yet-
  // executing incarnations (their reliable AbortTxns free the queue
  // slots) and restarts them no earlier than recovery. Data-site crashes
  // need no engine hook: queue-manager state is durable and the
  // transport's inbound gating (drop unreliable, defer reliable) does the
  // rest, with issuer timeouts re-covering dropped requests.
  if (fault_model_ != nullptr) {
    for (const CrashEvent& c : options_.fault.crashes) {
      if (c.site >= num_user) continue;
      const SiteId site = c.site;
      const SimTime recover_at = c.at + c.down;
      sim_.ScheduleAt(c.at, [this, site, recover_at]() {
        IssuerAt(site)->OnCrash(recover_at);
      });
    }
  }
}

void Engine::RouteToUserSite(SiteId site, SiteId from, const Message& m) {
  (void)from;
  RequestIssuer* issuer = IssuerAt(site);
  if (const auto* g = std::get_if<msg::Grant>(&m)) {
    issuer->OnGrant(*g);
  } else if (const auto* b = std::get_if<msg::Backoff>(&m)) {
    issuer->OnBackoff(*b);
  } else if (const auto* pa = std::get_if<msg::PaAccept>(&m)) {
    issuer->OnPaAccept(*pa);
  } else if (const auto* r = std::get_if<msg::Reject>(&m)) {
    issuer->OnReject(*r);
  } else if (const auto* v = std::get_if<msg::Victim>(&m)) {
    issuer->OnVictim(*v);
  } else {
    UNICC_CHECK_MSG(false, "unexpected message at user site");
  }
}

void Engine::RouteToDataSite(SiteId site, SiteId from, const Message& m) {
  DataSiteBackend* backend = BackendAt(site);
  if (const auto* r = std::get_if<msg::CcRequest>(&m)) {
    backend->OnRequest(*r);
  } else if (const auto* f = std::get_if<msg::FinalTs>(&m)) {
    backend->OnFinalTs(*f);
  } else if (const auto* rel = std::get_if<msg::Release>(&m)) {
    backend->OnRelease(*rel);
  } else if (const auto* st = std::get_if<msg::SemiTransform>(&m)) {
    backend->OnSemiTransform(*st);
  } else if (const auto* ab = std::get_if<msg::AbortTxn>(&m)) {
    backend->OnAbort(*ab);
  } else if (const auto* snap = std::get_if<msg::WfgSnapshotRequest>(&m)) {
    msg::WfgSnapshotReply reply;
    reply.round = snap->round;
    backend->CollectWaitEdges(&reply.edges);
    transport_->Send(site, from, reply);
  } else {
    UNICC_CHECK_MSG(false, "unexpected message at data site");
  }
}

void Engine::RouteToDetectorSite(SiteId from, const Message& m) {
  (void)from;
  if (const auto* reply = std::get_if<msg::WfgSnapshotReply>(&m)) {
    if (central_detector_) central_detector_->OnSnapshotReply(*reply);
  } else {
    UNICC_CHECK_MSG(false, "unexpected message at detector site");
  }
}

Status Engine::ValidateSpec(const TxnSpec& spec) const {
  if (Status s = spec.Validate(); !s.ok()) return s;
  if (spec.home >= options_.num_user_sites) {
    return Status::InvalidArgument("home is not a user site");
  }
  for (ItemId item : spec.read_set) {
    if (item >= options_.num_items) {
      return Status::InvalidArgument("read_set item out of range");
    }
  }
  for (ItemId item : spec.write_set) {
    if (item >= options_.num_items) {
      return Status::InvalidArgument("write_set item out of range");
    }
  }
  return Status::OK();
}

Status Engine::AddTransaction(SimTime when, const TxnSpec& spec,
                              ComputeFn compute) {
  if (Status s = ValidateSpec(spec); !s.ok()) return s;
  if (compute) compute_[spec.id] = std::move(compute);
  QueueBatchArrival(when, spec);
  return Status::OK();
}

void Engine::QueueBatchArrival(SimTime when, const TxnSpec& spec) {
  ++offered_;
  ++admitted_;
  stopped_ = false;
  if (!batch_.empty() && when < batch_.back().when) {
    // Out of time order: the arrival gets an admission event of its own,
    // which owns a copy of its spec. It draws the sequence number
    // ReserveSeq would have, so ties break the same either way.
    sim_.ScheduleAt(when, [this, owned = spec]() mutable {
      AdmitSpec(owned, sim_.Now());
    });
    return;
  }
  batch_.push_back(BatchArrival{
      when, sim_.ReserveSeq(), spec.id, spec.compute_time,
      spec.backoff_interval, spec.deadline, spec.home, spec.priority,
      static_cast<std::uint32_t>(spec.read_set.size()),
      static_cast<std::uint32_t>(spec.write_set.size()), spec.protocol});
  batch_items_.insert(batch_items_.end(), spec.read_set.begin(),
                      spec.read_set.end());
  batch_items_.insert(batch_items_.end(), spec.write_set.begin(),
                      spec.write_set.end());
  if (batch_.size() == 1) ScheduleBatchFront();
}

void Engine::ScheduleBatchFront() {
  const BatchArrival& front = batch_.front();
  // Captures only `this`, so the event fits EventFn's inline buffer.
  sim_.ScheduleReserved(front.when, front.seq, [this] {
    const BatchArrival& a = batch_.front();
    TxnSpec& spec = batch_spec_;
    spec.id = a.id;
    spec.home = a.home;
    spec.protocol = a.protocol;
    spec.compute_time = a.compute_time;
    spec.backoff_interval = a.backoff_interval;
    spec.priority = a.priority;
    spec.deadline = a.deadline;
    const auto reads_end = batch_items_.begin() + a.reads;
    const auto writes_end = reads_end + a.writes;
    spec.read_set.assign(batch_items_.begin(), reads_end);
    spec.write_set.assign(reads_end, writes_end);
    batch_items_.erase(batch_items_.begin(), writes_end);
    batch_.pop_front();
    if (!batch_.empty()) ScheduleBatchFront();
    AdmitSpec(spec, sim_.Now());
  });
}

void Engine::AdmitSpec(TxnSpec& spec, SimTime arrival) {
  if (fault_model_ != nullptr && fault_model_->DownAt(spec.home, sim_.Now())) {
    // The home site is down: the user re-submits at recovery, from a copy
    // of the spec the retry event owns. The arrival timestamp is kept, so
    // system time includes the outage wait.
    const SimTime retry = fault_model_->RecoverTime(spec.home, sim_.Now());
    sim_.ScheduleAt(retry, [this, spec, arrival]() mutable {
      AdmitSpec(spec, arrival);
    });
    return;
  }
  if (gate_ != nullptr && spec.deadline != 0) {
    const SimTime deadline_abs = arrival + spec.deadline;
    if (sim_.Now() >= deadline_abs) {
      // Already past its deadline (parked through an outage, or admitted
      // exactly at expiry): expire without ever beginning.
      ++expired_count_;
      metrics_.OnExpired();
      if (timeline_ != nullptr) timeline_->OnExpired(sim_.Now());
      OnSlotFreed();
      return;
    }
    const TxnId id = spec.id;
    const SiteId home = spec.home;
    ArmDeadline(id, sim_.ScheduleAt(deadline_abs, [this, id, home] {
      OnTxnDeadline(id, home);
    }));
  }
  if (policy_) spec.protocol = policy_(spec);
  if (options_.backend == BackendKind::kBasicTo) {
    UNICC_CHECK_MSG(spec.protocol == Protocol::kTimestampOrdering,
                    "the basic_to backend runs T/O only");
  }
  auto staged = compute_.extract(spec.id);
  IssuerAt(spec.home)->Begin(spec, arrival,
                             staged ? std::move(staged.mapped()) : nullptr);
}

Status Engine::AddWorkload(const std::vector<Arrival>& arrivals) {
  // All or nothing: an invalid spec anywhere admits none of the batch.
  for (const auto& a : arrivals) {
    if (Status s = ValidateSpec(a.spec); !s.ok()) return s;
  }
  for (const auto& a : arrivals) QueueBatchArrival(a.when, a.spec);
  return Status::OK();
}

bool Engine::InflightAtCap() const {
  return options_.run.max_inflight != 0 &&
         admitted_ - committed_count_ - expired_count_ >=
             options_.run.max_inflight;
}

void Engine::PullNextArrival() {
  Arrival a;
  if (stream_ != nullptr && stream_->Next(&a) &&
      (options_.run.time_horizon == 0 ||
       a.when <= options_.run.time_horizon)) {
    ++offered_;
    next_arrival_ = std::move(a);
    arrival_scheduled_ = true;
    // A deferred arrival is admitted at commit time, which can run past
    // the next arrival's timestamp; the gate never fires in the past.
    const SimTime when = std::max(next_arrival_.when, sim_.Now());
    next_arrival_event_ = sim_.ScheduleAt(when, [this] { OnArrivalDue(); });
    return;
  }
  // Exhausted (or the next arrival is past the horizon): close the stream.
  stream_.reset();
  CheckQuiescent();
}

void Engine::OnArrivalDue() {
  arrival_scheduled_ = false;
  if (InflightAtCap()) {
    if (gate_ == nullptr) {
      arrival_deferred_ = true;  // parked; the next commit admits it
      return;
    }
    // Bounded gate: park (or shed) this arrival and keep the stream
    // flowing — under overload the stream must not block behind one slot.
    Arrival a = std::move(next_arrival_);
    PullNextArrival();
    OfferToGate(std::move(a), /*resubmits=*/0);
    return;
  }
  AdmitPendingArrival();
}

void Engine::AdmitArrival(Arrival arrival) {
  UNICC_CHECK_MSG(ValidateSpec(arrival.spec).ok(),
                  "arrival stream produced an invalid spec");
  ++admitted_;
  // An arrival parked at the gate enters late (at the freeing commit's
  // time) but keeps its stream arrival timestamp, so system time includes
  // the gate wait.
  AdmitSpec(arrival.spec, std::min(arrival.when, sim_.Now()));
}

void Engine::AdmitPendingArrival() {
  AdmitArrival(std::move(next_arrival_));
  PullNextArrival();
}

void Engine::OfferToGate(Arrival arrival, std::uint32_t resubmits) {
  const SimTime now = sim_.Now();
  AdmissionGate::Entry e;
  e.priority = arrival.spec.priority;
  e.deadline = arrival.spec.deadline == 0
                   ? 0
                   : arrival.when + arrival.spec.deadline;
  e.resubmits = resubmits;
  e.seq = ++gate_seq_;
  e.arrival = std::move(arrival);
  if (e.deadline != 0 && e.deadline <= now) {
    // Dead on arrival (a re-submission delayed past its deadline).
    metrics_.OnExpired();
    if (timeline_ != nullptr) timeline_->OnExpired(now);
    CheckQuiescent();
    return;
  }
  const std::uint64_t seq = e.seq;
  const SimTime deadline = e.deadline;
  AdmissionGate::Entry shed;
  const AdmissionGate::Offered offered = gate_->Offer(std::move(e), &shed);
  // The parked entry's timer is armed before a victim's retry is
  // scheduled, so the two draw their sequence numbers in that order.
  if (offered.parked != nullptr && deadline != 0) {
    offered.parked->timer =
        sim_.ScheduleAt(deadline, [this, seq] { OnGateDeadline(seq); });
  }
  if (offered.shed) {
    DisarmGateTimer(shed);
    HandleShed(std::move(shed));
  }
}

void Engine::DisarmGateTimer(const AdmissionGate::Entry& e) {
  if (e.timer != 0) sim_.Cancel(e.timer);
}

void Engine::AdmitFromGate() {
  while (gate_ != nullptr && !gate_->empty() && !InflightAtCap()) {
    AdmissionGate::Entry e = gate_->PopBest();
    DisarmGateTimer(e);
    AdmitArrival(std::move(e.arrival));
  }
}

void Engine::HandleShed(AdmissionGate::Entry shed) {
  metrics_.OnShed();
  if (timeline_ != nullptr) timeline_->OnShed(sim_.Now());
  const EngineOptions::RunControls& rc = options_.run;
  if (rc.retry_limit > 0 && shed.resubmits < rc.retry_limit &&
      !admission_closed_) {
    metrics_.OnRetried();
    // Capped exponential backoff with seeded jitter: the client re-offers
    // after retry_delay * 2^k (k = prior re-submissions, capped) plus a
    // uniform draw in [0, retry_delay).
    const std::uint32_t shift = std::min(shed.resubmits, 20u);
    Duration delay = rc.retry_delay << shift;
    if (rc.retry_max_delay != 0 && delay > rc.retry_max_delay) {
      delay = rc.retry_max_delay;
    }
    delay += retry_rng_.UniformInt(rc.retry_delay);
    ++pending_resubmits_;
    const std::uint32_t resubmits = shed.resubmits + 1;
    sim_.Schedule(
        delay,
        [this, arrival = std::move(shed.arrival), resubmits]() mutable {
          --pending_resubmits_;
          if (admission_closed_) {
            CheckQuiescent();
            return;
          }
          if (!InflightAtCap()) {
            AdmitArrival(std::move(arrival));
          } else {
            OfferToGate(std::move(arrival), resubmits);
          }
        });
    return;
  }
  CheckQuiescent();
}

void Engine::OnGateDeadline(std::uint64_t seq) {
  AdmissionGate::Entry e;
  const bool parked = gate_->Remove(seq, &e);
  UNICC_CHECK_MSG(parked, "a gate timer outlived its entry");
  // Never admitted: counts as expired work in the metrics but not against
  // the drain invariant.
  metrics_.OnExpired();
  if (timeline_ != nullptr) timeline_->OnExpired(sim_.Now());
  CheckQuiescent();
}

void Engine::ArmDeadline(TxnId id, std::uint64_t event) {
  if (spare_deadline_nodes_.empty()) {
    txn_deadline_events_[id] = event;
    return;
  }
  DeadlineMap::node_type node = std::move(spare_deadline_nodes_.back());
  spare_deadline_nodes_.pop_back();
  node.key() = id;
  node.mapped() = event;
  txn_deadline_events_.insert(std::move(node));
}

void Engine::DisarmDeadline(TxnId id, bool cancel) {
  auto it = txn_deadline_events_.find(id);
  if (it == txn_deadline_events_.end()) return;
  if (cancel) sim_.Cancel(it->second);
  spare_deadline_nodes_.push_back(txn_deadline_events_.extract(it));
}

void Engine::OnTxnDeadline(TxnId id, SiteId home) {
  DisarmDeadline(id, /*cancel=*/false);  // the event running now
  // Executing transactions are allowed to finish (mirrors the crash rule:
  // completing fully granted work cannot violate serializability).
  if (!IssuerAt(home)->Expire(id)) return;
  ++expired_count_;
  metrics_.OnExpired();
  if (timeline_ != nullptr) timeline_->OnExpired(sim_.Now());
  OnSlotFreed();
}

void Engine::OnSlotFreed() {
  if (gate_ != nullptr && !admission_closed_) AdmitFromGate();
  CheckQuiescent();
}

void Engine::CloseAdmission() {
  if (arrival_scheduled_) {
    sim_.Cancel(next_arrival_event_);
    arrival_scheduled_ = false;
  }
  arrival_deferred_ = false;
  admission_closed_ = true;
  // Parked work is dropped silently, like the deferred arrival: past the
  // commit target it would never be admitted anyway.
  if (gate_ != nullptr) {
    for (const AdmissionGate::Entry& e : gate_->Drain()) DisarmGateTimer(e);
  }
  stream_.reset();
}

RunSummary Engine::Summarize() const {
  RunSummary s;
  s.offered = offered_;
  s.admitted = admitted_;
  s.committed = committed_count_;
  s.shed = metrics_.shed();
  s.expired = metrics_.expired();
  s.makespan = last_commit_;
  s.total_messages = transport_->TotalMessages();
  s.remote_messages = transport_->RemoteMessages();
  s.deadlock_victims = deadlock_victim_count();
  s.mean_system_time_ms = metrics_.MeanSystemTimeMs();
  for (const auto& issuer : issuers_) {
    s.reject_restarts += issuer->reject_restarts();
    s.backoff_rounds += issuer->backoff_rounds();
  }
  return s;
}

RunSummary Engine::Run() {
  // With nothing pending the stop flag can never flip on a commit, and the
  // deadlock detector would re-schedule its tick forever.
  CheckQuiescent();
  const EngineOptions::WatchdogControls& wd = options_.watchdog;
  Status status;
  if (wd.run_deadline == 0 && wd.stall_window == 0) {
    sim_.RunToCompletion();
    UNICC_CHECK_MSG(committed_count_ + expired_count_ == admitted_,
                    "run drained with uncommitted transactions");
  } else {
    status = RunWatched();
  }
  RunSummary summary = Summarize();
  summary.status = std::move(status);
  return summary;
}

// Two tripwires:
//   - run_deadline: wall-clock budget for the whole run (checked between
//     slices; the only nondeterministic control, by design);
//   - stall_window: simulated time without a single commit or expiry. The
//     loop advances in stall_window-sized slices, so a stall is detected
//     deterministically after between one and two windows of no progress.
Status Engine::RunWatched() {
  const EngineOptions::WatchdogControls& wd = options_.watchdog;
  // Without stall detection, slice just often enough to check the clock.
  const Duration slice =
      wd.stall_window != 0 ? wd.stall_window : 100 * kMillisecond;
  const auto wall_start = std::chrono::steady_clock::now();
  // The tail every cancellation message shares.
  auto counts = [this] {
    return ", committed " + std::to_string(committed_count_) + ", expired " +
           std::to_string(expired_count_) + " of " + std::to_string(admitted_) +
           " admitted)";
  };
  std::uint64_t progress = committed_count_ + expired_count_;
  SimTime cursor = 0;
  SimTime progress_at = 0;  // slice boundary when progress was last seen
  while (sim_.NextEventTime() != Simulator::kNoPending) {
    cursor = std::max(cursor, sim_.NextEventTime()) + slice;
    sim_.RunUntil(cursor);
    const std::uint64_t now_progress = committed_count_ + expired_count_;
    if (now_progress > progress) {
      progress = now_progress;
      progress_at = cursor;
    } else if (wd.stall_window != 0 &&
               cursor - progress_at >= wd.stall_window) {
      stopped_ = true;
      return Status::FailedPrecondition(
          "run stalled: no commit or expiry for " +
          std::to_string((cursor - progress_at) / kMillisecond) +
          " ms of simulated time (last progress: " +
          std::to_string(last_commit_ / kMillisecond) + " ms" + counts());
    }
    if (wd.run_deadline != 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wall_start);
      if (static_cast<Duration>(elapsed.count()) >= wd.run_deadline) {
        stopped_ = true;
        return Status::FailedPrecondition(
            "run deadline exceeded: " +
            std::to_string(wd.run_deadline / kMillisecond) +
            " ms of wall clock (last progress: " +
            std::to_string(last_commit_ / kMillisecond) + " ms simulated" +
            counts());
      }
    }
  }
  return Status::OK();
}

SerializabilityReport Engine::CheckSerializability() const {
  return checker_.Check();
}

const Store& Engine::StoreAt(SiteId site) const {
  const SiteId idx = site - options_.num_user_sites;
  UNICC_CHECK(idx < backends_.size());
  return backends_[idx]->store();
}

std::vector<std::uint64_t> Engine::ReadReplicas(ItemId item) const {
  std::vector<std::uint64_t> out;
  out.reserve(catalog_->replication());
  for (std::uint32_t k = 0; k < catalog_->replication(); ++k) {
    const CopyId copy = catalog_->CopyOf(item, k);
    out.push_back(StoreAt(copy.site).Read(copy));
  }
  return out;
}

bool Engine::ReplicasConsistent() const {
  return ReplicasAgree(*catalog_, [this](SiteId site) -> const Store& {
    return StoreAt(site);
  });
}

std::string Engine::DebugDump() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%.3fs admitted=%llu committed=%llu pending_events=%zu "
                "batch_waiting=%zu\n",
                static_cast<double>(sim_.Now()) / kSecond,
                static_cast<unsigned long long>(admitted_),
                static_cast<unsigned long long>(committed_count_),
                sim_.PendingEvents(), batch_.size());
  out += buf;
  for (const auto& issuer : issuers_) {
    std::snprintf(buf, sizeof(buf), "issuer site %u: %zu active\n",
                  issuer->site(), issuer->ActiveCount());
    out += buf;
  }
  for (const auto& backend : backends_) out += backend->DebugString();
  return out;
}

std::uint64_t Engine::deadlock_victim_count() const {
  std::uint64_t n = 0;
  for (const auto& issuer : issuers_) n += issuer->deadlock_restarts();
  return n;
}

}  // namespace unicc
