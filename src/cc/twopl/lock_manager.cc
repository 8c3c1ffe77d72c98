#include "cc/twopl/lock_manager.h"

#include <algorithm>

#include "common/check.h"

namespace unicc {

TwoPlLockManager::TwoPlLockManager(SiteId site, CcContext ctx, CcHooks hooks)
    : site_(site), ctx_(ctx), hooks_(std::move(hooks)) {
  UNICC_CHECK(ctx_.sim != nullptr && ctx_.transport != nullptr &&
              ctx_.log != nullptr);
}

void TwoPlLockManager::OnRequest(const msg::CcRequest& m) {
  UNICC_CHECK_MSG(m.proto == Protocol::kTwoPhaseLocking,
                  "pure 2PL backend got a non-2PL request");
  UNICC_CHECK_MSG(m.copy.site == site_, "request routed to wrong site");
  const std::uint32_t queue_index = queues_.IndexOf(m.copy);
  LockQueue& q = queues_.At(queue_index).value;
  q.entries.push_back(Entry{m.txn, m.attempt, m.reply_to, m.op, false});
  live_.List(queue_index);
  TryGrant(m.copy, q);
}

void TwoPlLockManager::TryGrant(const CopyId& copy, LockQueue& q) {
  // Grant in FCFS order: the next waiter is granted iff it does not
  // conflict with any granted entry, and no earlier waiter exists (strict
  // FCFS prevents starvation of writers behind readers).
  for (auto& e : q.entries) {
    if (e.granted) continue;
    bool conflict = false;
    for (const auto& g : q.entries) {
      if (!g.granted) continue;
      if (e.op == OpType::kWrite || g.op == OpType::kWrite) {
        conflict = true;
        break;
      }
    }
    if (conflict) return;
    e.granted = true;
    ++grants_sent_;
    if (hooks_.on_grant) {
      hooks_.on_grant(copy, e.op, Protocol::kTwoPhaseLocking);
    }
    ctx_.transport->Send(
        site_, e.reply_to,
        msg::Grant{e.txn, e.attempt, copy, true, true, store_.Read(copy)});
    // Only reads can stack; after granting a write nothing else fits.
    if (e.op == OpType::kWrite) return;
  }
}

void TwoPlLockManager::OnFinalTs(const msg::FinalTs&) {
  UNICC_CHECK_MSG(false, "FinalTs is not part of the 2PL protocol");
}

void TwoPlLockManager::OnSemiTransform(const msg::SemiTransform&) {
  UNICC_CHECK_MSG(false, "SemiTransform is not part of the 2PL protocol");
}

void TwoPlLockManager::OnRelease(const msg::Release& m) {
  LockQueue* qp = queues_.Find(m.copy);
  if (qp == nullptr) return;
  LockQueue& q = *qp;
  for (auto it = q.entries.begin(); it != q.entries.end(); ++it) {
    if (it->txn == m.txn && it->attempt == m.attempt) {
      UNICC_CHECK_MSG(it->granted, "release for a non-granted 2PL request");
      if (m.has_write) store_.Write(m.copy, m.write_value);
      ctx_.log->Append(m.copy, m.txn, m.attempt, it->op, ctx_.sim->Now());
      q.entries.erase(it);
      TryGrant(m.copy, q);
      return;
    }
  }
}

void TwoPlLockManager::OnAbort(const msg::AbortTxn& m) {
  LockQueue* qp = queues_.Find(m.copy);
  if (qp == nullptr) return;
  LockQueue& q = *qp;
  for (auto it = q.entries.begin(); it != q.entries.end(); ++it) {
    if (it->txn == m.txn && it->attempt == m.attempt) {
      q.entries.erase(it);
      TryGrant(m.copy, q);
      return;
    }
  }
}

std::string TwoPlLockManager::DebugString() const {
  std::string out;
  for (const auto& [copy, q] : queues_) {
    if (q.entries.empty()) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "copy(%u@%u):\n", copy.item, copy.site);
    out += buf;
    for (const Entry& e : q.entries) {
      std::snprintf(buf, sizeof(buf), "  [txn=%llu/%u %s %s]\n",
                    static_cast<unsigned long long>(e.txn), e.attempt,
                    e.op == OpType::kRead ? "r" : "w",
                    e.granted ? "granted" : "waiting");
      out += buf;
    }
  }
  return out;
}

void TwoPlLockManager::CollectWaitEdges(std::vector<WaitEdge>* out) const {
  const auto& live = live_.Live([this](std::uint32_t index) {
    return queues_.At(index).value.entries.empty();
  });
  for (const std::uint32_t index : live) {
    const LockQueue& q = queues_.At(index).value;
    for (std::size_t i = 0; i < q.entries.size(); ++i) {
      const Entry& e = q.entries[i];
      if (e.granted) continue;
      // Waits on every conflicting granted holder and every earlier waiter
      // (FCFS order).
      for (std::size_t j = 0; j < q.entries.size(); ++j) {
        if (i == j) continue;
        const Entry& other = q.entries[j];
        if (other.txn == e.txn) continue;
        if (other.granted) {
          if (e.op == OpType::kWrite || other.op == OpType::kWrite) {
            out->push_back(WaitEdge{e.txn, other.txn});
          }
        } else if (j < i) {
          out->push_back(WaitEdge{e.txn, other.txn});
        }
      }
    }
  }
}

const std::deque<TwoPlLockManager::Entry>& TwoPlLockManager::QueueOf(
    const CopyId& copy) const {
  static const std::deque<Entry> kEmpty;
  const LockQueue* q = queues_.Find(copy);
  return q == nullptr ? kEmpty : q->entries;
}

}  // namespace unicc
