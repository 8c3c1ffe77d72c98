#include "cc/to/to_manager.h"

#include <algorithm>

#include "common/check.h"

namespace unicc {

BasicToManager::BasicToManager(SiteId site, CcContext ctx, CcHooks hooks)
    : site_(site), ctx_(ctx), hooks_(std::move(hooks)) {
  UNICC_CHECK(ctx_.sim != nullptr && ctx_.transport != nullptr &&
              ctx_.log != nullptr);
}

void BasicToManager::GrantRead(const CopyId& copy, Timestamp ts, TxnId txn,
                               Attempt attempt, SiteId reply_to) {
  // A pure-T/O read is implemented at grant time; only committed
  // incarnations are kept by the serializability checker.
  ctx_.log->Append(copy, txn, attempt, OpType::kRead, ctx_.sim->Now());
  if (hooks_.on_grant) {
    hooks_.on_grant(copy, OpType::kRead, Protocol::kTimestampOrdering);
  }
  ctx_.transport->Send(site_, reply_to,
                       msg::Grant{txn, attempt, copy, true, true,
                                  store_.Read(copy)});
  (void)ts;
}

void BasicToManager::OnRequest(const msg::CcRequest& m) {
  UNICC_CHECK_MSG(m.proto == Protocol::kTimestampOrdering,
                  "pure T/O backend got a non-T/O request");
  UNICC_CHECK_MSG(m.copy.site == site_, "request routed to wrong site");
  const std::uint32_t copy_index = copies_.IndexOf(m.copy);
  Copy& c = copies_.At(copy_index).value;
  if (m.op == OpType::kRead) {
    if (m.ts <= c.w_ts) {
      if (hooks_.on_reject) hooks_.on_reject(m.op, m.proto);
      ctx_.transport->Send(site_, m.reply_to,
                           msg::Reject{m.txn, m.attempt, m.copy});
      return;
    }
    c.r_ts = std::max(c.r_ts, m.ts);
    // Wait for uncommitted prewrites with smaller timestamps.
    bool must_wait = false;
    for (const Prewrite& p : c.prewrites) {
      if (p.ts < m.ts) {
        must_wait = true;
        break;
      }
    }
    if (must_wait) {
      c.waiting.push_back(WaitingRead{m.ts, m.txn, m.attempt, m.reply_to});
      live_.List(copy_index);
    } else {
      GrantRead(m.copy, m.ts, m.txn, m.attempt, m.reply_to);
    }
  } else {
    if (m.ts <= c.w_ts || m.ts <= c.r_ts) {
      if (hooks_.on_reject) hooks_.on_reject(m.op, m.proto);
      ctx_.transport->Send(site_, m.reply_to,
                           msg::Reject{m.txn, m.attempt, m.copy});
      return;
    }
    c.w_ts = std::max(c.w_ts, m.ts);
    Prewrite p;
    p.ts = m.ts;
    p.txn = m.txn;
    p.attempt = m.attempt;
    p.reply_to = m.reply_to;
    auto it = std::upper_bound(
        c.prewrites.begin(), c.prewrites.end(), p,
        [](const Prewrite& a, const Prewrite& b) { return a.ts < b.ts; });
    c.prewrites.insert(it, p);
    // A prewrite acceptance doubles as the grant: the transaction may
    // proceed; the write installs at commit in timestamp order.
    if (hooks_.on_grant) {
      hooks_.on_grant(m.copy, m.op, Protocol::kTimestampOrdering);
    }
    ctx_.transport->Send(site_, m.reply_to,
                         msg::Grant{m.txn, m.attempt, m.copy, true, true,
                                    store_.Read(m.copy)});
  }
}

void BasicToManager::Drain(const CopyId& copy, Copy& c) {
  // Install committed prewrites from the front in timestamp order, then
  // grant reads no longer blocked by a smaller uncommitted prewrite.
  bool changed = true;
  while (changed) {
    changed = false;
    if (!c.prewrites.empty() && c.prewrites.front().release_pending) {
      Prewrite p = c.prewrites.front();
      c.prewrites.erase(c.prewrites.begin());
      store_.Write(copy, p.value);
      ctx_.log->Append(copy, p.txn, p.attempt, OpType::kWrite,
                       ctx_.sim->Now());
      changed = true;
    }
    const Timestamp min_pending =
        c.prewrites.empty() ? ~Timestamp{0} : c.prewrites.front().ts;
    for (std::size_t i = 0; i < c.waiting.size();) {
      if (c.waiting[i].ts < min_pending) {
        WaitingRead r = c.waiting[i];
        c.waiting.erase(c.waiting.begin() + static_cast<std::ptrdiff_t>(i));
        GrantRead(copy, r.ts, r.txn, r.attempt, r.reply_to);
        changed = true;
      } else {
        ++i;
      }
    }
  }
}

void BasicToManager::OnRelease(const msg::Release& m) {
  Copy* cp = copies_.Find(m.copy);
  if (cp == nullptr) return;
  Copy& c = *cp;
  if (!m.has_write) return;  // read commit: nothing held at the copy
  for (Prewrite& p : c.prewrites) {
    if (p.txn == m.txn && p.attempt == m.attempt) {
      p.release_pending = true;
      p.value = m.write_value;
      Drain(m.copy, c);
      return;
    }
  }
}

void BasicToManager::OnAbort(const msg::AbortTxn& m) {
  Copy* cp = copies_.Find(m.copy);
  if (cp == nullptr) return;
  Copy& c = *cp;
  for (auto it = c.prewrites.begin(); it != c.prewrites.end(); ++it) {
    if (it->txn == m.txn && it->attempt == m.attempt) {
      c.prewrites.erase(it);
      break;
    }
  }
  for (auto it = c.waiting.begin(); it != c.waiting.end(); ++it) {
    if (it->txn == m.txn && it->attempt == m.attempt) {
      c.waiting.erase(it);
      break;
    }
  }
  Drain(m.copy, c);
}

void BasicToManager::OnFinalTs(const msg::FinalTs&) {
  UNICC_CHECK_MSG(false, "FinalTs is not part of Basic T/O");
}

void BasicToManager::OnSemiTransform(const msg::SemiTransform&) {
  UNICC_CHECK_MSG(false, "SemiTransform is not part of Basic T/O");
}

void BasicToManager::CollectWaitEdges(std::vector<WaitEdge>* out) const {
  // Reads wait only on prewrites with smaller timestamps: the wait graph is
  // acyclic by construction, but edges are still reported for completeness.
  const auto& live = live_.Live([this](std::uint32_t index) {
    return copies_.At(index).value.waiting.empty();
  });
  for (const std::uint32_t index : live) {
    const Copy& c = copies_.At(index).value;
    for (const WaitingRead& r : c.waiting) {
      for (const Prewrite& p : c.prewrites) {
        if (p.ts < r.ts) {
          out->push_back(WaitEdge{r.txn, p.txn, p.reply_to,
                                  Protocol::kTimestampOrdering});
        }
      }
    }
  }
}

}  // namespace unicc
