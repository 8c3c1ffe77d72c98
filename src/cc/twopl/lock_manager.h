// Pure static 2PL backend (paper, Section 3.3): requests are served
// first-come-first-served at each data queue; a request is granted when all
// conflicting requests with lower precedence (earlier arrivals) have been
// implemented. Reads share, writes are exclusive. Deadlocks are possible
// and resolved externally by the deadlock detector.
#ifndef UNICC_CC_TWOPL_LOCK_MANAGER_H_
#define UNICC_CC_TWOPL_LOCK_MANAGER_H_

#include <deque>
#include <vector>

#include "cc/backend.h"
#include "common/copy_map.h"
#include "common/types.h"

namespace unicc {

class TwoPlLockManager : public DataSiteBackend {
 public:
  TwoPlLockManager(SiteId site, CcContext ctx, CcHooks hooks = {});

  void OnRequest(const msg::CcRequest& m) override;
  void OnFinalTs(const msg::FinalTs& m) override;
  void OnRelease(const msg::Release& m) override;
  void OnSemiTransform(const msg::SemiTransform& m) override;
  void OnAbort(const msg::AbortTxn& m) override;
  void CollectWaitEdges(std::vector<WaitEdge>* out) const override;
  std::string DebugString() const override;

  const Store& store() const override { return store_; }
  Store* mutable_store() { return &store_; }

  std::uint64_t grants_sent() const { return grants_sent_; }

  struct Entry {
    TxnId txn = 0;
    Attempt attempt = 0;
    SiteId reply_to = 0;
    OpType op = OpType::kRead;
    bool granted = false;
  };
  // Introspection for tests: the FCFS queue of one copy.
  const std::deque<Entry>& QueueOf(const CopyId& copy) const;

 private:
  struct LockQueue {
    std::deque<Entry> entries;  // FCFS; granted entries stay until release
  };

  void TryGrant(const CopyId& copy, LockQueue& q);

  SiteId site_;
  CcContext ctx_;
  CcHooks hooks_;
  Store store_;
  CopyTable<LockQueue> queues_;
  // The non-empty queues (see UnifiedQueueManager::live_).
  mutable LiveQueueIndex live_;
  std::uint64_t grants_sent_ = 0;
};

}  // namespace unicc

#endif  // UNICC_CC_TWOPL_LOCK_MANAGER_H_
