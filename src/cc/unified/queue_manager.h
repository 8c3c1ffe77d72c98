// The unified data queue manager (paper, Section 4): one sorted data queue
// per physical copy, the unified precedence assignment of Section 4.1, and
// the semi-lock enforcement protocol of Section 4.2. Requests from 2PL, T/O
// and PA transactions coexist in the same queue.
//
// Grant rules (HD(j) = the first non-granted entry in precedence order):
//   (i)   read  by 2PL/PA -> RL   iff no outstanding WL or SWL
//   (ii)  write by 2PL/PA -> WL   iff no outstanding lock at all
//   (iii) read  by T/O    -> SRL  iff no outstanding WL
//   (iv)  write by T/O    -> WL   iff no outstanding RL or WL
// A grant is pre-scheduled when a conflicting lock granted earlier is still
// outstanding; when those release, a second, normal, grant is sent (rule v).
//
// With `semi_locks = false` the manager degrades to the paper's "lock
// everything" alternative: T/O entries use the 2PL/PA rules (i)-(ii); this
// is the E6 ablation.
//
// With every transaction on one protocol the manager is that pure
// protocol, so it also serves the pure 2PL and pure PA backends: 2PL-only
// precedences stay (0, arrival order), which is FCFS shared/exclusive
// locking, and PA-only queues run PA exactly (the paper proves PA correct
// this way, Corollary 1).
#ifndef UNICC_CC_UNIFIED_QUEUE_MANAGER_H_
#define UNICC_CC_UNIFIED_QUEUE_MANAGER_H_

#include <cstdint>
#include <vector>

#include "cc/backend.h"
#include "cc/request.h"
#include "common/copy_map.h"
#include "common/types.h"

namespace unicc {

struct UnifiedQmOptions {
  // False selects the lock-everything ablation (Section 4.2's "one
  // solution", sacrificing T/O concurrency).
  bool semi_locks = true;
};

class UnifiedQueueManager : public DataSiteBackend {
 public:
  UnifiedQueueManager(SiteId site, CcContext ctx, UnifiedQmOptions options,
                      CcHooks hooks = {});

  void OnRequest(const msg::CcRequest& m) override;
  void OnFinalTs(const msg::FinalTs& m) override;
  void OnRelease(const msg::Release& m) override;
  void OnSemiTransform(const msg::SemiTransform& m) override;
  void OnAbort(const msg::AbortTxn& m) override;
  void CollectWaitEdges(std::vector<WaitEdge>* out) const override;
  std::string DebugString() const override;

  const Store& store() const override { return store_; }
  Store* mutable_store() { return &store_; }

  SiteId site() const { return site_; }

  // Introspection for tests: the queue of one copy, in precedence order.
  const std::vector<QueueEntry>& QueueOf(const CopyId& copy) const;

  // Counters.
  std::uint64_t rejects_sent() const { return rejects_sent_; }
  std::uint64_t backoffs_sent() const { return backoffs_sent_; }

 private:
  // Per-copy queue state.
  struct DataQueue {
    std::vector<QueueEntry> entries;  // sorted by QueueEntry::prec
    Timestamp r_ts = 0;   // biggest granted read timestamp
    Timestamp w_ts = 0;   // biggest granted write timestamp
    Timestamp hwm = 0;    // biggest timestamp ever seen (2PL assignment)
    std::uint64_t arrival_seq = 0;
    std::uint64_t next_grant_seq = 0;
  };

  DataQueue& QueueFor(const CopyId& copy) { return queues_.GetOrCreate(copy); }

  // Inserts keeping precedence order; returns entry index. A queue with
  // no entry storage takes a spare buffer first.
  std::size_t Insert(DataQueue& q, QueueEntry entry);

  // Moves an emptied queue's entry storage onto the spare list.
  void ShelveIfEmpty(DataQueue& q);

  // Finds (txn, attempt) in q; returns entries.size() when absent.
  std::size_t Find(const DataQueue& q, TxnId txn, Attempt attempt) const;

  // The smallest timestamp of the form ts + k*interval (k >= 1) strictly
  // greater than `bound`.
  static Timestamp BackoffTimestamp(Timestamp ts, Timestamp interval,
                                    Timestamp bound);

  // Lock kind an entry requests under current options.
  LockKind DesiredKind(const QueueEntry& e) const;

  // Grants every grantable head in turn (rules A-D + (i)-(iv)).
  void TryGrant(const CopyId& copy, DataQueue& q);

  // Rule (v): pre-scheduled locks whose earlier conflicts have all released
  // become normal; a second grant message announces it.
  void UpgradePass(const CopyId& copy, DataQueue& q);

  // Installs the pending write (if any) and logs the implementation point.
  void ImplementEntry(const CopyId& copy, QueueEntry& e);

  void SendToIssuer(SiteId to, Message m);

  SiteId site_;
  CcContext ctx_;
  UnifiedQmOptions options_;
  CcHooks hooks_;
  Store store_;
  // Open-addressing per-copy queue table; insertion-ordered iteration
  // keeps CollectWaitEdges() and DebugString() deterministic.
  CopyTable<DataQueue> queues_;
  // The non-empty queues: every OnRequest that inserts lists its queue,
  // and CollectWaitEdges() (logically const) prunes the emptied ones.
  mutable LiveQueueIndex live_;
  // Entry buffers of queues that emptied (cleared, capacity kept), so
  // entry storage follows the queues in use: buffers number at most the
  // peak count of queues non-empty at once, not one per copy touched.
  std::vector<std::vector<QueueEntry>> spare_entries_;

  std::uint64_t rejects_sent_ = 0;
  std::uint64_t backoffs_sent_ = 0;

  static const std::vector<QueueEntry> kEmptyQueue;
};

}  // namespace unicc

#endif  // UNICC_CC_UNIFIED_QUEUE_MANAGER_H_
