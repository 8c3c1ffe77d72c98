#include "cc/unified/queue_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace unicc {

const std::vector<QueueEntry> UnifiedQueueManager::kEmptyQueue;

UnifiedQueueManager::UnifiedQueueManager(SiteId site, CcContext ctx,
                                         UnifiedQmOptions options,
                                         CcHooks hooks)
    : site_(site), ctx_(ctx), options_(options), hooks_(std::move(hooks)) {
  UNICC_CHECK(ctx_.sim != nullptr && ctx_.transport != nullptr &&
              ctx_.log != nullptr);
}

std::size_t UnifiedQueueManager::Insert(DataQueue& q, QueueEntry entry) {
  if (q.entries.capacity() == 0 && !spare_entries_.empty()) {
    q.entries.swap(spare_entries_.back());
    spare_entries_.pop_back();
  }
  auto it = std::upper_bound(
      q.entries.begin(), q.entries.end(), entry,
      [](const QueueEntry& a, const QueueEntry& b) { return a.prec < b.prec; });
  const std::size_t idx = static_cast<std::size_t>(it - q.entries.begin());
  q.entries.insert(it, std::move(entry));
  return idx;
}

void UnifiedQueueManager::ShelveIfEmpty(DataQueue& q) {
  if (!q.entries.empty() || q.entries.capacity() == 0) return;
  spare_entries_.emplace_back().swap(q.entries);
}

std::size_t UnifiedQueueManager::Find(const DataQueue& q, TxnId txn,
                                      Attempt attempt) const {
  for (std::size_t i = 0; i < q.entries.size(); ++i) {
    if (q.entries[i].txn == txn && q.entries[i].attempt == attempt) return i;
  }
  return q.entries.size();
}

Timestamp UnifiedQueueManager::BackoffTimestamp(Timestamp ts,
                                                Timestamp interval,
                                                Timestamp bound) {
  if (interval == 0) interval = 1;
  if (ts > bound) return ts + interval;  // k = 1 suffices
  const Timestamp k = (bound - ts) / interval + 1;
  return ts + k * interval;
}

void UnifiedQueueManager::SendToIssuer(SiteId to, Message m) {
  ctx_.transport->Send(site_, to, std::move(m));
}

void UnifiedQueueManager::OnRequest(const msg::CcRequest& m) {
  UNICC_CHECK_MSG(m.copy.site == site_, "request routed to wrong site");
  const std::uint32_t queue_index = queues_.IndexOf(m.copy);
  DataQueue& q = queues_.At(queue_index).value;

  QueueEntry entry;
  entry.txn = m.txn;
  entry.attempt = m.attempt;
  entry.reply_to = m.reply_to;
  entry.op = m.op;
  entry.proto = m.proto;

  switch (m.proto) {
    case Protocol::kTwoPhaseLocking: {
      // Section 4.1: the 2PL precedence is the biggest timestamp ever seen
      // in this queue, with 2PL ranked above every site id and FCFS
      // tie-break by arrival order.
      entry.prec = Precedence::For2pl(q.hwm, q.arrival_seq++);
      entry.mark = EntryMark::kAccepted;
      Insert(q, std::move(entry));
      break;
    }
    case Protocol::kTimestampOrdering: {
      const bool ok = (m.op == OpType::kRead)
                          ? m.ts > q.w_ts
                          : (m.ts > q.w_ts && m.ts > q.r_ts);
      if (!ok) {
        ++rejects_sent_;
        if (hooks_.on_reject) hooks_.on_reject(m.op, m.proto);
        SendToIssuer(m.reply_to,
                     msg::Reject{m.txn, m.attempt, m.copy});
        return;
      }
      entry.prec = Precedence::ForTimestamped(m.ts, m.reply_to, m.txn);
      entry.mark = EntryMark::kAccepted;
      q.hwm = std::max(q.hwm, m.ts);
      Insert(q, std::move(entry));
      break;
    }
    case Protocol::kPrecedenceAgreement: {
      const Timestamp bound =
          (m.op == OpType::kRead) ? q.w_ts : std::max(q.w_ts, q.r_ts);
      if (m.ts > bound) {
        entry.prec = Precedence::ForTimestamped(m.ts, m.reply_to, m.txn);
        entry.mark = EntryMark::kAccepted;
        // Multi-request PA transactions await timestamp confirmation
        // before becoming grantable; acknowledge the acceptance so the
        // issuer can complete its negotiation round.
        entry.confirmed = m.txn_requests <= 1;
        q.hwm = std::max(q.hwm, m.ts);
        Insert(q, std::move(entry));
        if (m.txn_requests > 1) {
          SendToIssuer(m.reply_to, msg::PaAccept{m.txn, m.attempt, m.copy});
        }
      } else {
        // Back-off branch: TS'ij = TS_i + k*INT_i, minimal k with
        // TS'ij > bound. Insert marked blocked; the queue stalls behind it
        // until the final timestamp arrives (rule A).
        const Timestamp ts_prime =
            BackoffTimestamp(m.ts, m.backoff_interval, bound);
        entry.prec = Precedence::ForTimestamped(ts_prime, m.reply_to, m.txn);
        entry.mark = EntryMark::kBlocked;
        entry.confirmed = false;
        q.hwm = std::max(q.hwm, ts_prime);
        Insert(q, std::move(entry));
        ++backoffs_sent_;
        if (hooks_.on_backoff_offer) hooks_.on_backoff_offer(m.op);
        SendToIssuer(m.reply_to,
                     msg::Backoff{m.txn, m.attempt, m.copy, ts_prime});
      }
      break;
    }
  }
  live_.List(queue_index);
  TryGrant(m.copy, q);
}

void UnifiedQueueManager::OnFinalTs(const msg::FinalTs& m) {
  DataQueue& q = QueueFor(m.copy);
  const std::size_t idx = Find(q, m.txn, m.attempt);
  if (idx == q.entries.size()) return;  // aborted meanwhile
  QueueEntry entry = q.entries[idx];
  UNICC_CHECK(m.final_ts >= entry.prec.ts);
  q.entries.erase(q.entries.begin() + static_cast<std::ptrdiff_t>(idx));
  entry.prec.ts = m.final_ts;
  entry.mark = EntryMark::kAccepted;
  entry.confirmed = true;
  q.hwm = std::max(q.hwm, m.final_ts);
  if (entry.granted) {
    // The request was granted before negotiation finished elsewhere; raise
    // the recorded read/write timestamps so later arrivals cannot slip
    // under the new precedence. The lock itself keeps enforcing E1.
    if (entry.op == OpType::kRead) {
      q.r_ts = std::max(q.r_ts, m.final_ts);
    } else {
      q.w_ts = std::max(q.w_ts, m.final_ts);
    }
  }
  Insert(q, std::move(entry));
  TryGrant(m.copy, q);
}

LockKind UnifiedQueueManager::DesiredKind(const QueueEntry& e) const {
  const bool to_semantics =
      options_.semi_locks && e.proto == Protocol::kTimestampOrdering;
  if (e.op == OpType::kRead) {
    return to_semantics ? LockKind::kSemiReadLock : LockKind::kReadLock;
  }
  return LockKind::kWriteLock;
}

void UnifiedQueueManager::TryGrant(const CopyId& copy, DataQueue& q) {
  for (;;) {
    // HD(j): the first non-granted entry; every entry before it is granted.
    std::size_t hd = q.entries.size();
    for (std::size_t i = 0; i < q.entries.size(); ++i) {
      if (!q.entries[i].granted) {
        hd = i;
        break;
      }
    }
    if (hd == q.entries.size()) return;
    QueueEntry& e = q.entries[hd];
    // Rule A, extended: blocked or not-yet-confirmed PA entries stall the
    // queue until their final timestamp arrives.
    if (e.mark == EntryMark::kBlocked || !e.confirmed) return;

    const bool to_semantics =
        options_.semi_locks && e.proto == Protocol::kTimestampOrdering;
    bool allow = true;
    for (const QueueEntry& g : q.entries) {
      if (!g.granted) continue;
      if (to_semantics) {
        if (e.op == OpType::kRead) {
          // (iii) SRL: only outstanding WLs block.
          if (g.lock == LockKind::kWriteLock) allow = false;
        } else {
          // (iv) WL for T/O: outstanding RLs and WLs block.
          if (g.lock == LockKind::kWriteLock ||
              g.lock == LockKind::kReadLock) {
            allow = false;
          }
        }
      } else {
        if (e.op == OpType::kRead) {
          // (i) RL: outstanding WLs and SWLs block.
          if (g.lock == LockKind::kWriteLock ||
              g.lock == LockKind::kSemiWriteLock) {
            allow = false;
          }
        } else {
          // (ii) WL for 2PL/PA: any outstanding lock blocks.
          allow = false;
        }
      }
      if (!allow) break;
    }
    if (!allow) return;  // rule D

    e.granted = true;
    e.lock = DesiredKind(e);
    e.grant_seq = q.next_grant_seq++;
    // Pre-scheduled iff some earlier-granted conflicting lock is still
    // outstanding (only possible against semi-locks given the rules above).
    e.normal = true;
    for (const QueueEntry& g : q.entries) {
      if (&g == &e || !g.granted) continue;
      if (LocksConflict(g.lock, e.lock)) {
        e.normal = false;
        break;
      }
    }
    if (e.op == OpType::kRead) {
      q.r_ts = std::max(q.r_ts, e.prec.ts);
    } else {
      q.w_ts = std::max(q.w_ts, e.prec.ts);
    }
    if (hooks_.on_grant) hooks_.on_grant(copy, e.op, e.proto);
    if (to_semantics && e.op == OpType::kRead) {
      // A T/O read's value is captured by this grant (the data ride along
      // with it), so this is its true implementation point in the per-copy
      // conflict order; rule (iii) guarantees no uninstalled conflicting
      // write is outstanding. Logging it at the commit-time transform
      // instead would misorder it against writes whose transforms reach
      // other copies first.
      ctx_.log->Append(copy, e.txn, e.attempt, e.op, ctx_.sim->Now());
      e.logged = true;
    }
    msg::Grant grant{e.txn, e.attempt, copy, e.normal, true,
                     store_.Read(copy)};
    SendToIssuer(e.reply_to, grant);
  }
}

void UnifiedQueueManager::UpgradePass(const CopyId& copy, DataQueue& q) {
  for (QueueEntry& e : q.entries) {
    if (!e.granted || e.normal) continue;
    bool conflict_left = false;
    for (const QueueEntry& g : q.entries) {
      if (&g == &e || !g.granted) continue;
      if (g.grant_seq < e.grant_seq && LocksConflict(g.lock, e.lock)) {
        conflict_left = true;
        break;
      }
    }
    if (!conflict_left) {
      e.normal = true;
      msg::Grant grant{e.txn, e.attempt, copy, /*normal=*/true, false, 0};
      SendToIssuer(e.reply_to, grant);
    }
  }
}

void UnifiedQueueManager::ImplementEntry(const CopyId& copy, QueueEntry& e) {
  if (e.logged) return;
  if (e.op == OpType::kWrite && e.has_write_value) {
    store_.Write(copy, e.write_value);
  }
  ctx_.log->Append(copy, e.txn, e.attempt, e.op, ctx_.sim->Now());
  e.logged = true;
}

void UnifiedQueueManager::OnRelease(const msg::Release& m) {
  DataQueue& q = QueueFor(m.copy);
  const std::size_t idx = Find(q, m.txn, m.attempt);
  if (idx == q.entries.size()) return;  // stale
  QueueEntry& e = q.entries[idx];
  UNICC_CHECK_MSG(e.granted, "release for a non-granted request");
  if (m.has_write) {
    e.has_write_value = true;
    e.write_value = m.write_value;
  }
  ImplementEntry(m.copy, e);
  q.entries.erase(q.entries.begin() + static_cast<std::ptrdiff_t>(idx));
  UpgradePass(m.copy, q);
  TryGrant(m.copy, q);
  ShelveIfEmpty(q);
}

void UnifiedQueueManager::OnSemiTransform(const msg::SemiTransform& m) {
  DataQueue& q = QueueFor(m.copy);
  const std::size_t idx = Find(q, m.txn, m.attempt);
  if (idx == q.entries.size()) return;  // stale
  QueueEntry& e = q.entries[idx];
  UNICC_CHECK_MSG(e.granted, "semi-transform for a non-granted request");
  UNICC_CHECK_MSG(e.proto == Protocol::kTimestampOrdering,
                  "semi-transform is a T/O commit action");
  if (m.has_write) {
    e.has_write_value = true;
    e.write_value = m.write_value;
  }
  // The operation is implemented at the transform (Section 4.3).
  ImplementEntry(m.copy, e);
  e.lock = ToSemi(e.lock);
  // Transforming WL -> SWL may enable T/O grants (rules iii/iv ignore
  // semi-locks); normal upgrades still require releases.
  TryGrant(m.copy, q);
}

void UnifiedQueueManager::OnAbort(const msg::AbortTxn& m) {
  DataQueue& q = QueueFor(m.copy);
  const std::size_t idx = Find(q, m.txn, m.attempt);
  if (idx == q.entries.size()) return;
  const bool was_granted = q.entries[idx].granted;
  q.entries.erase(q.entries.begin() + static_cast<std::ptrdiff_t>(idx));
  if (was_granted) UpgradePass(m.copy, q);
  TryGrant(m.copy, q);
  ShelveIfEmpty(q);
}

void UnifiedQueueManager::CollectWaitEdges(std::vector<WaitEdge>* out) const {
  // `waiter` waits on `holder`'s transaction, whose home and protocol the
  // holder entry names.
  auto wait_on = [out](TxnId waiter, const QueueEntry& holder) {
    out->push_back(WaitEdge{waiter, holder.txn, holder.reply_to, holder.proto});
  };
  const auto& live = live_.Live([this](std::uint32_t index) {
    return queues_.At(index).value.entries.empty();
  });
  for (const std::uint32_t index : live) {
    const DataQueue& q = queues_.At(index).value;
    for (std::size_t i = 0; i < q.entries.size(); ++i) {
      const QueueEntry& e = q.entries[i];
      if (e.granted) {
        // A pre-scheduled lock's owner is committed (semi-lock path) but
        // cannot release until earlier conflicting locks do: that wait is
        // part of the wait-for graph too. Without these edges a cycle
        // through a lingering T/O transaction is invisible to the
        // detector (a genuine deadlock the paper's Section 4.2 does not
        // discuss; see docs/architecture.md, "Deadlock detection").
        if (!e.normal) {
          for (const QueueEntry& g : q.entries) {
            if (&g == &e || !g.granted) continue;
            if (g.grant_seq < e.grant_seq &&
                LocksConflict(g.lock, e.lock) && g.txn != e.txn) {
              wait_on(e.txn, g);
            }
          }
        }
        continue;
      }
      if (e.mark == EntryMark::kBlocked || !e.confirmed) {
        // A blocked or unconfirmed PA entry waits on its own negotiation,
        // not on other transactions; it emits no edges (but entries behind
        // it wait on it, added below by those entries).
        continue;
      }
      for (std::size_t j = 0; j < q.entries.size(); ++j) {
        if (i == j) continue;
        const QueueEntry& other = q.entries[j];
        if (other.txn == e.txn) continue;
        if (other.granted) {
          // Wait on conflicting outstanding locks (per the grant rules the
          // entry actually waits on: semi-locks do not block T/O entries).
          const bool to_semantics = options_.semi_locks &&
                                    e.proto == Protocol::kTimestampOrdering;
          bool blocks;
          if (to_semantics) {
            blocks = (e.op == OpType::kRead)
                         ? other.lock == LockKind::kWriteLock
                         : (other.lock == LockKind::kWriteLock ||
                            other.lock == LockKind::kReadLock);
          } else {
            blocks = (e.op == OpType::kRead)
                         ? (other.lock == LockKind::kWriteLock ||
                            other.lock == LockKind::kSemiWriteLock)
                         : true;
          }
          if (blocks) wait_on(e.txn, other);
        } else if (other.prec < e.prec) {
          // Queue-order wait: HD discipline grants strictly in precedence
          // order, so e also waits on every earlier waiter.
          wait_on(e.txn, other);
        }
      }
    }
  }
}

std::string UnifiedQueueManager::DebugString() const {
  std::string out;
  for (const auto& [copy, q] : queues_) {
    if (q.entries.empty()) continue;
    char head[64];
    std::snprintf(head, sizeof(head), "copy(%u@%u) rts=%llu wts=%llu:\n",
                  copy.item, copy.site,
                  static_cast<unsigned long long>(q.r_ts),
                  static_cast<unsigned long long>(q.w_ts));
    out += head;
    for (const QueueEntry& e : q.entries) {
      out += "  " + e.ToString() + "\n";
    }
  }
  return out;
}

const std::vector<QueueEntry>& UnifiedQueueManager::QueueOf(
    const CopyId& copy) const {
  const DataQueue* q = queues_.Find(copy);
  return q == nullptr ? kEmptyQueue : q->entries;
}

}  // namespace unicc
