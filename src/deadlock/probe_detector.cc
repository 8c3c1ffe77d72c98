#include "deadlock/probe_detector.h"

#include "common/check.h"

namespace unicc {

ProbeDeadlockDetector::ProbeDeadlockDetector(SiteId site, CcContext ctx,
                                             ProbeDetectorOptions options,
                                             RequestIssuer* issuer)
    : site_(site), ctx_(ctx), options_(options), issuer_(issuer) {
  UNICC_CHECK(issuer_ != nullptr);
}

void ProbeDeadlockDetector::Start() {
  ctx_.sim->Schedule(options_.interval, [this]() { Tick(); });
}

void ProbeDeadlockDetector::Tick() {
  if (stop_ != nullptr && *stop_) return;
  ++ticks_;
  if (ticks_ % 16 == 0) seen_.clear();  // bounded memory; probes re-issue
  for (const auto& w :
       issuer_->LongWaiting(Protocol::kTwoPhaseLocking, options_.min_wait)) {
    ++probes_initiated_;
    for (const CopyId& copy : issuer_->WaitingCopies(w.txn)) {
      ctx_.transport->Send(
          site_, copy.site,
          msg::ProbeQuery{w.txn, w.attempt, w.txn, /*hops=*/0});
    }
  }
  ctx_.sim->Schedule(options_.interval, [this]() { Tick(); });
}

void ProbeDeadlockDetector::OnProbe(const msg::Probe& m) {
  if (m.target == m.initiator) {
    // The probe came back: a cycle through the initiator exists. Abort it
    // (locally; the issuer ignores the message if the transaction moved on).
    if (issuer_->IsActive(m.initiator)) {
      ++deadlocks_found_;
      ctx_.transport->Send(site_, site_, msg::Victim{m.initiator});
    }
    return;
  }
  if (m.hops >= options_.max_hops) return;
  // Forward while the target is still waiting somewhere — including
  // semi-committed transactions awaiting their normal upgrades.
  if (issuer_->WaitingCopies(m.target).empty()) return;
  const auto key = std::make_tuple(m.initiator, m.initiator_attempt, m.target);
  if (!seen_.insert(key).second) return;  // already chased
  ForwardFor(m.target, m);
}

void ProbeDeadlockDetector::ForwardFor(TxnId txn, const msg::Probe& m) {
  for (const CopyId& copy : issuer_->WaitingCopies(txn)) {
    ctx_.transport->Send(site_, copy.site,
                         msg::ProbeQuery{m.initiator, m.initiator_attempt,
                                         txn, m.hops + 1});
  }
}

void HandleProbeQuery(SiteId site, const CcContext& ctx,
                      const DataSiteBackend& backend,
                      const msg::ProbeQuery& m) {
  std::vector<WaitEdge> edges;
  backend.CollectWaitEdges(&edges);
  for (const WaitEdge& e : edges) {
    if (e.waiter != m.target) continue;
    ctx.transport->Send(site, e.holder_home,
                        msg::Probe{m.initiator, m.initiator_attempt,
                                   e.holder, m.hops + 1});
  }
}

}  // namespace unicc
