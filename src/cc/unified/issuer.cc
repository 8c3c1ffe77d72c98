#include "cc/unified/issuer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace unicc {

RequestIssuer::RequestIssuer(SiteId site, CcContext ctx,
                             const Catalog* catalog, IssuerOptions options,
                             Rng rng, IssuerEvents events)
    : site_(site),
      ctx_(ctx),
      catalog_(catalog),
      options_(options),
      rng_(rng),
      events_(std::move(events)) {
  UNICC_CHECK(ctx_.sim != nullptr && ctx_.transport != nullptr);
  UNICC_CHECK(catalog_ != nullptr);
}

void RequestIssuer::Begin(const TxnSpec& spec, SimTime arrival,
                          ComputeFn compute) {
  UNICC_CHECK_MSG(spec.Validate().ok(), "invalid transaction spec");
  UNICC_CHECK_MSG(spec.home == site_, "transaction routed to wrong issuer");
  UNICC_CHECK_MSG(!active_.contains(spec.id), "duplicate transaction id");
  UNICC_CHECK_MSG(arrival <= ctx_.sim->Now(), "arrival in the future");
  ActiveTxn& t = Activate(spec.id);
  t.spec = spec;
  t.arrival = arrival;
  t.interval = spec.backoff_interval != 0
                   ? spec.backoff_interval
                   : options_.default_backoff_interval;
  t.compute = std::move(compute);
  StartAttempt(t);
}

void RequestIssuer::StartAttempt(ActiveTxn& t) {
  t.attempt_start = ctx_.sim->Now();
  t.ts = tsgen_.Next(ctx_.sim->Now() + options_.clock_skew);
  t.reqs.clear();
  t.st.clear();
  t.grants = 0;
  t.normals = 0;
  t.responses = 0;
  t.negotiated = false;
  t.executing = false;
  for (ItemId item : t.spec.read_set) {
    t.reqs.push_back(PhysReq{catalog_->ReadCopy(item, rng_.Next()),
                             OpType::kRead});
  }
  for (ItemId item : t.spec.write_set) {
    for (std::uint32_t k = 0; k < catalog_->replication(); ++k) {
      t.reqs.push_back(PhysReq{catalog_->CopyOf(item, k), OpType::kWrite});
    }
  }
  t.st.assign(t.reqs.size(), ReqState{});
  for (const PhysReq& r : t.reqs) {
    msg::CcRequest m;
    m.txn = t.spec.id;
    m.attempt = t.attempt;
    m.copy = r.copy;
    m.op = r.op;
    m.proto = t.spec.protocol;
    m.ts = t.ts;
    m.backoff_interval = t.interval;
    m.txn_requests = static_cast<std::uint32_t>(t.reqs.size());
    m.reply_to = site_;
    ctx_.transport->Send(site_, r.copy.site, m);
    if (events_.on_request_sent) {
      events_.on_request_sent(t.spec.protocol, r.op);
    }
  }
  if (options_.request_timeout > 0) {
    const TxnId id = t.spec.id;
    const Attempt attempt = t.attempt;
    ctx_.sim->Schedule(options_.request_timeout, [this, id, attempt]() {
      ActiveTxn* t = FindActive(id, attempt);
      if (t == nullptr || t->executing) return;
      AbortAndRestart(*t, TxnOutcome::kRestartedByTimeout);
    });
  }
}

RequestIssuer::ActiveTxn* RequestIssuer::FindActive(TxnId txn,
                                                    Attempt attempt) {
  auto it = active_.find(txn);
  if (it == active_.end()) return nullptr;
  if (it->second.attempt != attempt) return nullptr;  // stale incarnation
  return &it->second;
}

void RequestIssuer::OnGrant(const msg::Grant& m) {
  ActiveTxn* t = FindActive(m.txn, m.attempt);
  if (t == nullptr) {
    // Possibly a normal-grant upgrade for a semi-committed transaction.
    auto it = lingering_.find(m.txn);
    if (it == lingering_.end() || it->second.attempt != m.attempt) return;
    Lingering& lg = it->second;
    std::size_t ci = 0;
    while (ci < lg.copies.size() && !(lg.copies[ci] == m.copy)) ++ci;
    if (ci == lg.copies.size() || lg.normal[ci]) return;
    if (!m.normal) return;
    lg.normal[ci] = 1;
    if (++lg.normals == lg.copies.size()) {
      FinishLingering(m.txn, lg);
      lingering_.erase(it);
    }
    return;
  }
  const std::size_t ri = t->FindReq(m.copy);
  if (ri == t->reqs.size()) return;
  ReqState& rs = t->st[ri];
  if (!rs.granted) {
    rs.granted = true;
    rs.grant_time = ctx_.sim->Now();
    if (m.has_value) {
      rs.value = m.value;
      rs.has_value = true;
    }
    ++t->grants;
    if (!rs.responded) {
      rs.responded = true;
      ++t->responses;
    }
  }
  if (m.normal && !rs.normal) {
    rs.normal = true;
    ++t->normals;
  }
  CheckProgress(*t);
}

void RequestIssuer::OnBackoff(const msg::Backoff& m) {
  ActiveTxn* t = FindActive(m.txn, m.attempt);
  if (t == nullptr) return;
  UNICC_CHECK_MSG(t->spec.protocol == Protocol::kPrecedenceAgreement,
                  "back-off for a non-PA transaction");
  const std::size_t ri = t->FindReq(m.copy);
  if (ri == t->reqs.size()) return;
  ReqState& rs = t->st[ri];
  rs.backoff_offer = std::max(rs.backoff_offer, m.new_ts);
  if (!rs.responded) {
    rs.responded = true;
    ++t->responses;
  }
  CheckProgress(*t);
}

void RequestIssuer::OnPaAccept(const msg::PaAccept& m) {
  ActiveTxn* t = FindActive(m.txn, m.attempt);
  if (t == nullptr) return;
  UNICC_CHECK_MSG(t->spec.protocol == Protocol::kPrecedenceAgreement,
                  "PA accept for a non-PA transaction");
  const std::size_t ri = t->FindReq(m.copy);
  if (ri == t->reqs.size()) return;
  ReqState& rs = t->st[ri];
  if (!rs.responded) {
    rs.responded = true;
    ++t->responses;
  }
  CheckProgress(*t);
}

void RequestIssuer::OnReject(const msg::Reject& m) {
  ActiveTxn* t = FindActive(m.txn, m.attempt);
  if (t == nullptr) return;
  UNICC_CHECK_MSG(t->spec.protocol == Protocol::kTimestampOrdering,
                  "reject for a non-T/O transaction");
  if (t->executing) return;  // cannot happen in a correct backend; be safe
  AbortAndRestart(*t, TxnOutcome::kRestartedByReject);
}

void RequestIssuer::OnVictim(const msg::Victim& m) {
  auto it = active_.find(m.txn);
  if (it == active_.end()) return;
  ActiveTxn& t = it->second;
  if (t.executing) return;  // already past the window where it can block
  if (t.reqs.empty()) return;  // restart already pending (stale victim)
  AbortAndRestart(t, TxnOutcome::kRestartedByDeadlock);
}

void RequestIssuer::CheckProgress(ActiveTxn& t) {
  // PA negotiation: once every request has answered (accept, grant or
  // back-off offer), fix TS'_i = max(TS_i, max_j TS'_ij) and confirm it at
  // every queue. Queues grant multi-request PA entries only after this
  // confirmation, which keeps every grant consistent with the final
  // timestamp order and hence deadlock-free (see docs/architecture.md,
  // "PA grant confirmation").
  if (t.spec.protocol == Protocol::kPrecedenceAgreement && !t.negotiated &&
      t.responses == t.reqs.size() && t.grants < t.reqs.size()) {
    Timestamp max_offer = 0;
    for (const ReqState& rs : t.st) {
      max_offer = std::max(max_offer, rs.backoff_offer);
    }
    t.negotiated = true;
    if (max_offer > t.ts) {
      t.ts = max_offer;
      tsgen_.Observe(max_offer);
      ++t.backoff_rounds;
      ++backoff_rounds_;
    }
    for (const PhysReq& r : t.reqs) {
      ctx_.transport->Send(site_, r.copy.site,
                           msg::FinalTs{t.spec.id, t.attempt, r.copy, t.ts});
    }
  }
  if (!t.executing && t.grants == t.reqs.size()) Execute(t);
}

void RequestIssuer::Execute(ActiveTxn& t) {
  t.executing = true;
  const TxnId id = t.spec.id;
  const Attempt attempt = t.attempt;
  ctx_.sim->Schedule(t.spec.compute_time, [this, id, attempt]() {
    ActiveTxn* t = FindActive(id, attempt);
    if (t == nullptr) return;
    Commit(*t);
  });
}

void RequestIssuer::ReportLockHolds(const ActiveTxn& t, bool aborted) {
  if (!events_.on_lock_hold) return;
  const SimTime now = ctx_.sim->Now();
  for (const ReqState& rs : t.st) {
    if (!rs.granted) continue;
    // Occupancy time of the request at its queue: from issue to release.
    // The STL model's U is the window during which the request denies the
    // data to others; a queued request already occupies its FCFS slot, so
    // this starts at the attempt, not at the grant.
    events_.on_lock_hold(t.spec.protocol, now - t.attempt_start, aborted);
  }
}

void RequestIssuer::Commit(ActiveTxn& t) {
  // Local computing phase output. The maps are only materialized when the
  // transaction installed a compute function; the common path writes the
  // transaction id and allocates nothing.
  std::unordered_map<ItemId, std::uint64_t> writes;
  if (t.compute) {
    // Assemble the values read; write-set items take the value attached
    // to any of their copy grants.
    std::unordered_map<ItemId, std::uint64_t> read_values;
    for (std::size_t i = 0; i < t.reqs.size(); ++i) {
      const ReqState& rs = t.st[i];
      if (rs.has_value && !read_values.contains(t.reqs[i].copy.item)) {
        read_values[t.reqs[i].copy.item] = rs.value;
      }
    }
    for (auto& [item, value] : t.compute(read_values)) writes[item] = value;
  }
  auto write_value = [&](ItemId item) {
    auto it = writes.find(item);
    return it != writes.end() ? it->second : t.spec.id;
  };

  const bool semi_path =
      options_.semi_locks &&
      t.spec.protocol == Protocol::kTimestampOrdering &&
      t.normals < t.grants;

  ReportLockHolds(t, /*aborted=*/false);

  if (semi_path) {
    // Section 4.2 rule 4: transform every lock into a semi-lock; the
    // transaction is considered executed now. Keep collecting normal
    // grants; releases follow once one normal grant per copy arrived.
    Lingering lg;
    lg.attempt = t.attempt;
    for (std::size_t i = 0; i < t.reqs.size(); ++i) {
      const PhysReq& r = t.reqs[i];
      msg::SemiTransform m;
      m.txn = t.spec.id;
      m.attempt = t.attempt;
      m.copy = r.copy;
      if (r.op == OpType::kWrite) {
        m.has_write = true;
        m.write_value = write_value(r.copy.item);
      }
      ctx_.transport->Send(site_, r.copy.site, m);
      lg.copies.push_back(r.copy);
      const bool already_normal = t.st[i].normal;
      lg.normal.push_back(already_normal ? 1 : 0);
      if (already_normal) ++lg.normals;
    }
    ++semi_commits_;
    TxnResult result;
    result.id = t.spec.id;
    result.protocol = t.spec.protocol;
    result.arrival = t.arrival;
    result.commit = ctx_.sim->Now();
    result.attempts = t.attempts_total;
    result.backoffs = t.backoff_rounds;
    result.num_requests = t.reqs.size();
    result.deadline = t.spec.deadline;
    ++commits_;
    const TxnId id = t.spec.id;
    lingering_.emplace(id, std::move(lg));
    Recycle(id);
    if (events_.on_commit) events_.on_commit(result);
    // The lingering releases may already be complete (all normal).
    auto it = lingering_.find(id);
    if (it != lingering_.end() && it->second.normals ==
                                      it->second.copies.size()) {
      FinishLingering(id, it->second);
      lingering_.erase(it);
    }
    return;
  }

  for (const PhysReq& r : t.reqs) {
    msg::Release m;
    m.txn = t.spec.id;
    m.attempt = t.attempt;
    m.copy = r.copy;
    if (r.op == OpType::kWrite) {
      m.has_write = true;
      m.write_value = write_value(r.copy.item);
    }
    ctx_.transport->Send(site_, r.copy.site, m);
  }
  TxnResult result;
  result.id = t.spec.id;
  result.protocol = t.spec.protocol;
  result.arrival = t.arrival;
  result.commit = ctx_.sim->Now();
  result.attempts = t.attempts_total;
  result.backoffs = t.backoff_rounds;
  result.num_requests = t.reqs.size();
  result.deadline = t.spec.deadline;
  ++commits_;
  Recycle(t.spec.id);
  if (events_.on_commit) events_.on_commit(result);
}

RequestIssuer::ActiveTxn& RequestIssuer::Activate(TxnId txn) {
  if (spare_.empty()) {
    auto [pos, inserted] = active_.try_emplace(txn);
    UNICC_CHECK(inserted);
    return pos->second;
  }
  ActiveMap::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = txn;
  // Reset to a fresh transaction, keeping the vectors' capacity.
  ActiveTxn& t = node.mapped();
  t.attempt = 1;
  t.ts = 0;
  t.interval = 1;
  t.reqs.clear();
  t.st.clear();
  t.grants = 0;
  t.normals = 0;
  t.responses = 0;
  t.negotiated = false;
  t.executing = false;
  t.backoff_rounds = 0;
  t.attempts_total = 1;
  const auto inserted = active_.insert(std::move(node));
  UNICC_CHECK(inserted.inserted);
  return inserted.position->second;
}

void RequestIssuer::Recycle(TxnId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return;
  // The compute closure dies with the transaction, not when the spare
  // node is eventually reused: its captures must not outlive the commit.
  it->second.compute = nullptr;
  spare_.push_back(active_.extract(it));
}

void RequestIssuer::FinishLingering(TxnId txn, Lingering& lg) {
  for (const CopyId& copy : lg.copies) {
    msg::Release m;
    m.txn = txn;
    m.attempt = lg.attempt;
    m.copy = copy;
    // Writes were installed at the semi-lock transform.
    ctx_.transport->Send(site_, copy.site, m);
  }
}

void RequestIssuer::AbortAndRestart(ActiveTxn& t, TxnOutcome why,
                                    SimTime not_before) {
  ReportLockHolds(t, /*aborted=*/true);
  for (const PhysReq& r : t.reqs) {
    ctx_.transport->Send(site_, r.copy.site,
                         msg::AbortTxn{t.spec.id, t.attempt, r.copy});
  }
  switch (why) {
    case TxnOutcome::kRestartedByReject:
      ++reject_restarts_;
      break;
    case TxnOutcome::kRestartedByTimeout:
      ++timeout_restarts_;
      break;
    default:
      ++deadlock_restarts_;
      break;
  }
  if (events_.on_restart) events_.on_restart(t.spec.protocol, why);
  if (events_.on_abort) events_.on_abort(t.spec.id, t.attempt);
  ++t.attempt;  // stale messages of the old incarnation are now dropped
  ++t.attempts_total;
  t.executing = false;
  t.st.clear();
  t.reqs.clear();
  const TxnId id = t.spec.id;
  const Attempt attempt = t.attempt;
  const Duration delay = static_cast<Duration>(
      rng_.Exponential(static_cast<double>(options_.restart_delay_mean)));
  SimTime start = ctx_.sim->Now() + delay;
  if (start < not_before) start = not_before;
  ctx_.sim->ScheduleAt(start, [this, id, attempt]() {
    auto it = active_.find(id);
    if (it == active_.end() || it->second.attempt != attempt) return;
    StartAttempt(it->second);
  });
}

bool RequestIssuer::Expire(TxnId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return false;
  ActiveTxn& t = it->second;
  if (t.executing) return false;  // fully granted; let it finish
  ReportLockHolds(t, /*aborted=*/true);
  // Reliable aborts free the queue slots; in-flight replies of the dead
  // incarnation hit FindActive == nullptr and are dropped.
  for (const PhysReq& r : t.reqs) {
    ctx_.transport->Send(site_, r.copy.site,
                         msg::AbortTxn{t.spec.id, t.attempt, r.copy});
  }
  if (events_.on_abort) events_.on_abort(txn, t.attempt);
  Recycle(txn);
  return true;
}

void RequestIssuer::OnCrash(SimTime recover_at) {
  // Canonical (id-sorted) order so the abort/restart message sequence is
  // independent of hash-map iteration order.
  std::vector<TxnId> hit;
  for (const auto& [id, t] : active_) {
    if (t.executing) continue;     // fully granted; let it finish
    if (t.reqs.empty()) continue;  // restart already pending
    hit.push_back(id);
  }
  std::sort(hit.begin(), hit.end());
  for (TxnId id : hit) {
    auto it = active_.find(id);
    if (it == active_.end()) continue;
    AbortAndRestart(it->second, TxnOutcome::kRestartedByTimeout, recover_at);
  }
}

bool RequestIssuer::IsRunning(TxnId txn, Attempt attempt) const {
  auto it = active_.find(txn);
  return it != active_.end() && it->second.attempt == attempt;
}

}  // namespace unicc
