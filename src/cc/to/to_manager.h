// Pure Basic T/O backend (paper Section 3.3; Bernstein-Goodman "basic
// timestamp ordering"). Each copy keeps R-TS and W-TS, the largest
// timestamps of accepted read/write requests. A read with ts <= W-TS or a
// write with ts <= max(R-TS, W-TS) is rejected (the transaction restarts
// with a fresh timestamp). Accepted writes are buffered as prewrites and
// installed in timestamp order at commit; accepted reads wait for
// uncommitted prewrites with smaller timestamps, so reads always observe
// the value of their timestamp predecessor. No Thomas write rule.
#ifndef UNICC_CC_TO_TO_MANAGER_H_
#define UNICC_CC_TO_TO_MANAGER_H_

#include <vector>

#include "cc/backend.h"
#include "common/copy_map.h"
#include "common/types.h"

namespace unicc {

class BasicToManager : public DataSiteBackend {
 public:
  BasicToManager(SiteId site, CcContext ctx, CcHooks hooks = {});

  void OnRequest(const msg::CcRequest& m) override;
  void OnFinalTs(const msg::FinalTs& m) override;
  void OnRelease(const msg::Release& m) override;
  void OnSemiTransform(const msg::SemiTransform& m) override;
  void OnAbort(const msg::AbortTxn& m) override;
  void CollectWaitEdges(std::vector<WaitEdge>* out) const override;

  const Store& store() const override { return store_; }
  Store* mutable_store() { return &store_; }

  struct Prewrite {
    Timestamp ts = 0;
    TxnId txn = 0;
    Attempt attempt = 0;
    SiteId reply_to = 0;
    bool release_pending = false;  // commit arrived, waiting for ts order
    std::uint64_t value = 0;
  };
  struct WaitingRead {
    Timestamp ts = 0;
    TxnId txn = 0;
    Attempt attempt = 0;
    SiteId reply_to = 0;
  };
  struct Copy {
    Timestamp r_ts = 0;
    Timestamp w_ts = 0;
    std::vector<Prewrite> prewrites;    // sorted by ts
    std::vector<WaitingRead> waiting;   // reads blocked on prewrites
  };
  // Introspection for tests: one copy's state, or nullptr if no request
  // ever reached it.
  const Copy* CopyStateOf(const CopyId& copy) const {
    return copies_.Find(copy);
  }

 private:
  // Installs committable prewrites and grants unblocked reads.
  void Drain(const CopyId& copy, Copy& c);
  void GrantRead(const CopyId& copy, Timestamp ts, TxnId txn,
                 Attempt attempt, SiteId reply_to);

  SiteId site_;
  CcContext ctx_;
  CcHooks hooks_;
  Store store_;
  CopyTable<Copy> copies_;
  // The copies with waiting reads, the only ones that have wait edges
  // (see UnifiedQueueManager::live_).
  mutable LiveQueueIndex live_;
};

}  // namespace unicc

#endif  // UNICC_CC_TO_TO_MANAGER_H_
