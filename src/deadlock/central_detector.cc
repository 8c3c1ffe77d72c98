#include "deadlock/central_detector.h"

#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace unicc {

CentralDeadlockDetector::CentralDeadlockDetector(
    SiteId site, CcContext ctx, CentralDetectorOptions options,
    std::vector<SiteId> data_sites)
    : site_(site),
      ctx_(ctx),
      options_(options),
      data_sites_(std::move(data_sites)) {
  UNICC_CHECK(ctx_.sim != nullptr && ctx_.transport != nullptr);
}

void CentralDeadlockDetector::Start() {
  ctx_.sim->Schedule(options_.interval, [this]() { Tick(); });
}

void CentralDeadlockDetector::Tick() {
  if (stop_ != nullptr && *stop_) return;
  if (replies_pending_ > 0 && options_.round_timeout > 0 &&
      ctx_.sim->Now() - round_start_ >= options_.round_timeout) {
    // Some reply was lost (or its site is down): abandon the round so a
    // fresh snapshot can start. Stragglers of the old round carry a stale
    // round tag and are ignored.
    replies_pending_ = 0;
    ++rounds_abandoned_;
  }
  if (replies_pending_ == 0) {
    ++round_;
    round_start_ = ctx_.sim->Now();
    collected_.clear();
    replies_pending_ = data_sites_.size();
    for (SiteId s : data_sites_) {
      ctx_.transport->Send(site_, s, msg::WfgSnapshotRequest{round_});
    }
  }
  ctx_.sim->Schedule(options_.interval, [this]() { Tick(); });
}

void CentralDeadlockDetector::OnSnapshotReply(const msg::WfgSnapshotReply& m) {
  if (m.round != round_ || replies_pending_ == 0) return;
  collected_.insert(collected_.end(), m.edges.begin(), m.edges.end());
  if (--replies_pending_ == 0) {
    ++rounds_completed_;
    Analyze();
  }
}

void CentralDeadlockDetector::Analyze() {
  WaitForGraph graph;
  graph.AddEdges(collected_);
  // Every cycle member holds an edge of its cycle, and each edge names its
  // holder's protocol and home. Indexed on the round's first cycle.
  std::unordered_map<TxnId, const WaitEdge*> held;
  for (;;) {
    std::vector<TxnId> cycle = graph.FindCycle();
    if (cycle.empty()) break;
    if (held.empty()) {
      for (const WaitEdge& e : collected_) held.emplace(e.holder, &e);
    }
    // Prefer the youngest (largest id) 2PL member; Corollary 2 guarantees
    // one exists in any genuine deadlock.
    TxnId victim = 0;
    bool found_2pl = false;
    TxnId to_fallback = 0;
    bool found_to = false;
    for (TxnId t : cycle) {
      switch (held.at(t)->holder_proto) {
        case Protocol::kTwoPhaseLocking:
          if (!found_2pl || t > victim) victim = t;
          found_2pl = true;
          break;
        case Protocol::kTimestampOrdering:
          if (!found_to || t > to_fallback) to_fallback = t;
          found_to = true;
          break;
        case Protocol::kPrecedenceAgreement:
          break;
      }
    }
    if (!found_2pl && found_to) {
      victim = to_fallback;
      ++non_2pl_victims_;
    } else if (!found_2pl) {
      // All-PA cycle: necessarily a transient snapshot artifact (PA is
      // deadlock-free, Corollary 1); wait for the next round.
      ++cycles_skipped_;
      graph.RemoveNode(cycle.front());  // avoid rediscovering it this round
      continue;
    }
    ++victims_selected_;
    ctx_.transport->Send(site_, held.at(victim)->holder_home,
                         msg::Victim{victim});
    graph.RemoveNode(victim);
  }
}

}  // namespace unicc
