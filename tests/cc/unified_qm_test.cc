#include "cc/unified/queue_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <variant>
#include <vector>

#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"

namespace unicc {
namespace {

constexpr SiteId kUserSite = 0;
constexpr SiteId kDataSite = 1;
const CopyId kX{0, kDataSite};

// Drives one UnifiedQueueManager directly and records every message sent
// back to the user site.
class QmHarness {
 public:
  explicit QmHarness(UnifiedQmOptions options = {}) {
    NetworkOptions net;
    net.base_delay = 1;  // 1us: deterministic, near-immediate
    net.local_delay = 1;
    transport_ = std::make_unique<SimTransport>(&sim_, net, Rng(1));
    transport_->RegisterSite(kUserSite,
                             [this](SiteId, const Message& m) {
                               inbox_.push_back(m);
                             });
    CcContext ctx{&sim_, transport_.get(), &log_};
    qm_ = std::make_unique<UnifiedQueueManager>(kDataSite, ctx, options);
    transport_->RegisterSite(kDataSite, [this](SiteId, const Message& m) {
      if (const auto* r = std::get_if<msg::CcRequest>(&m)) {
        qm_->OnRequest(*r);
      } else if (const auto* f = std::get_if<msg::FinalTs>(&m)) {
        qm_->OnFinalTs(*f);
      } else if (const auto* rel = std::get_if<msg::Release>(&m)) {
        qm_->OnRelease(*rel);
      } else if (const auto* st = std::get_if<msg::SemiTransform>(&m)) {
        qm_->OnSemiTransform(*st);
      } else if (const auto* ab = std::get_if<msg::AbortTxn>(&m)) {
        qm_->OnAbort(*ab);
      }
    });
  }

  void Request(TxnId txn, OpType op, Protocol proto, Timestamp ts,
               Timestamp interval = 4, std::uint32_t txn_requests = 1,
               const CopyId& copy = kX) {
    msg::CcRequest m;
    m.txn = txn;
    m.attempt = 1;
    m.copy = copy;
    m.op = op;
    m.proto = proto;
    m.ts = ts;
    m.backoff_interval = interval;
    m.txn_requests = txn_requests;
    m.reply_to = kUserSite;
    transport_->Send(kUserSite, kDataSite, m);
    sim_.RunToCompletion();
  }
  void Release(TxnId txn, bool has_write = false, std::uint64_t v = 0,
               const CopyId& copy = kX) {
    transport_->Send(kUserSite, kDataSite,
                     msg::Release{txn, 1, copy, has_write, v});
    sim_.RunToCompletion();
  }
  void SemiTransform(TxnId txn, bool has_write = false,
                     std::uint64_t v = 0) {
    transport_->Send(kUserSite, kDataSite,
                     msg::SemiTransform{txn, 1, kX, has_write, v});
    sim_.RunToCompletion();
  }
  void FinalTs(TxnId txn, Timestamp ts) {
    transport_->Send(kUserSite, kDataSite, msg::FinalTs{txn, 1, kX, ts});
    sim_.RunToCompletion();
  }
  void Abort(TxnId txn, const CopyId& copy = kX) {
    transport_->Send(kUserSite, kDataSite, msg::AbortTxn{txn, 1, copy});
    sim_.RunToCompletion();
  }

  // Grants received for txn, in arrival order.
  std::vector<msg::Grant> GrantsFor(TxnId txn) const {
    std::vector<msg::Grant> out;
    for (const auto& m : inbox_) {
      if (const auto* g = std::get_if<msg::Grant>(&m)) {
        if (g->txn == txn) out.push_back(*g);
      }
    }
    return out;
  }
  std::vector<msg::Backoff> BackoffsFor(TxnId txn) const {
    std::vector<msg::Backoff> out;
    for (const auto& m : inbox_) {
      if (const auto* b = std::get_if<msg::Backoff>(&m)) {
        if (b->txn == txn) out.push_back(*b);
      }
    }
    return out;
  }
  bool PaAccepted(TxnId txn) const {
    for (const auto& m : inbox_) {
      if (const auto* a = std::get_if<msg::PaAccept>(&m)) {
        if (a->txn == txn) return true;
      }
    }
    return false;
  }
  bool Rejected(TxnId txn) const {
    for (const auto& m : inbox_) {
      if (const auto* r = std::get_if<msg::Reject>(&m)) {
        if (r->txn == txn) return true;
      }
    }
    return false;
  }

  UnifiedQueueManager& qm() { return *qm_; }
  ImplementationLog& log() { return log_; }

 private:
  Simulator sim_;
  std::unique_ptr<SimTransport> transport_;
  ImplementationLog log_;
  std::unique_ptr<UnifiedQueueManager> qm_;
  std::vector<Message> inbox_;
};

TEST(UnifiedQmTest, TwoPlWritesAreFcfsExclusive) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);
  EXPECT_TRUE(h.GrantsFor(2).empty());
  h.Release(1, true, 42);
  ASSERT_EQ(h.GrantsFor(2).size(), 1u);
  // The second writer reads the first writer's value.
  EXPECT_EQ(h.GrantsFor(2)[0].value, 42u);
}

TEST(UnifiedQmTest, TwoPlReadsShareTheLock) {
  QmHarness h;
  h.Request(1, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
}

TEST(UnifiedQmTest, WriterWaitsForReaders) {
  QmHarness h;
  h.Request(1, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  EXPECT_TRUE(h.GrantsFor(2).empty());
  h.Release(1);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
}

TEST(UnifiedQmTest, StrictFcfsWriterNotStarved) {
  // Reader 3 is compatible with holder 1 but queues behind waiting writer
  // 2: a stream of readers cannot starve a writer.
  QmHarness h;
  h.Request(1, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(3, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  EXPECT_TRUE(h.GrantsFor(3).empty());
  h.Release(1);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
  EXPECT_TRUE(h.GrantsFor(3).empty());
  h.Release(2);
  EXPECT_EQ(h.GrantsFor(3).size(), 1u);
}

TEST(UnifiedQmTest, ToReadRejectedBehindBiggerWriteTs) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 100);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);  // granted, W-TS = 100
  h.Request(2, OpType::kRead, Protocol::kTimestampOrdering, 50);
  EXPECT_TRUE(h.Rejected(2));
  // Equal timestamp also rejected (strict inequality).
  h.Request(3, OpType::kRead, Protocol::kTimestampOrdering, 100);
  EXPECT_TRUE(h.Rejected(3));
  // Bigger timestamp accepted.
  h.Request(4, OpType::kRead, Protocol::kTimestampOrdering, 150);
  EXPECT_FALSE(h.Rejected(4));
}

TEST(UnifiedQmTest, ToWriteRejectedBehindReadTs) {
  QmHarness h;
  h.Request(1, OpType::kRead, Protocol::kTimestampOrdering, 100);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);  // R-TS = 100
  h.Request(2, OpType::kWrite, Protocol::kTimestampOrdering, 80);
  EXPECT_TRUE(h.Rejected(2));
}

TEST(UnifiedQmTest, PaBackoffOfferUsesIntervalFormula) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kPrecedenceAgreement, 10);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);  // W-TS = 10
  // PA write at ts 5 with INT 4: smallest 5 + k*4 > 10 is k=2 -> 13.
  h.Request(2, OpType::kWrite, Protocol::kPrecedenceAgreement, 5, 4);
  const auto offers = h.BackoffsFor(2);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].new_ts, 13u);
  EXPECT_FALSE(h.Rejected(2));  // PA never rejects
}

TEST(UnifiedQmTest, MultiRequestPaAwaitsConfirmationBeforeGrant) {
  QmHarness h;
  // A PA request belonging to a 2-request transaction is accepted but must
  // not be granted until its final timestamp is confirmed ("PA grant
  // confirmation" in docs/architecture.md).
  h.Request(1, OpType::kWrite, Protocol::kPrecedenceAgreement, 10,
            /*interval=*/4, /*txn_requests=*/2);
  EXPECT_TRUE(h.PaAccepted(1));
  EXPECT_TRUE(h.GrantsFor(1).empty());
  // Confirmation makes it grantable.
  h.FinalTs(1, 10);
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);
}

TEST(UnifiedQmTest, SingleRequestPaGrantsEagerly) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kPrecedenceAgreement, 10);
  EXPECT_FALSE(h.PaAccepted(1));
  EXPECT_EQ(h.GrantsFor(1).size(), 1u);
}

TEST(UnifiedQmTest, BlockedPaEntryStallsQueueUntilFinalTs) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kPrecedenceAgreement, 10);
  h.Request(2, OpType::kWrite, Protocol::kPrecedenceAgreement, 5, 4);
  // A later request behind the blocked entry must wait even after t1
  // releases (rule A: HD is blocked).
  h.Request(3, OpType::kWrite, Protocol::kPrecedenceAgreement, 20);
  h.Release(1);
  EXPECT_TRUE(h.GrantsFor(2).empty());
  EXPECT_TRUE(h.GrantsFor(3).empty());
  // Final timestamp unblocks t2; with t2 at 13 < 20 it is granted first.
  h.FinalTs(2, 13);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
  EXPECT_TRUE(h.GrantsFor(3).empty());
  h.Release(2);
  EXPECT_EQ(h.GrantsFor(3).size(), 1u);
}

TEST(UnifiedQmTest, SemiLockAllowsToReadPastSemiWrite) {
  QmHarness h;
  // T/O writer t1 commits via semi-transform (its WL becomes SWL).
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 10);
  ASSERT_EQ(h.GrantsFor(1).size(), 1u);
  EXPECT_TRUE(h.GrantsFor(1)[0].normal);
  h.SemiTransform(1, true, 111);
  // T/O reader t2 (bigger ts) gets a pre-scheduled SRL immediately.
  h.Request(2, OpType::kRead, Protocol::kTimestampOrdering, 20);
  auto grants = h.GrantsFor(2);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_FALSE(grants[0].normal);       // pre-scheduled
  EXPECT_EQ(grants[0].value, 111u);     // reads the transformed write
  // 2PL reader t3 must wait: SWL blocks RL (rule i).
  h.Request(3, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  EXPECT_TRUE(h.GrantsFor(3).empty());
  // When t1 finally releases, t2 is upgraded to a normal grant.
  h.Release(1);
  grants = h.GrantsFor(2);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_TRUE(grants[1].normal);
}

TEST(UnifiedQmTest, LockEverythingAblationBlocksToReads) {
  UnifiedQmOptions opt;
  opt.semi_locks = false;
  QmHarness h(opt);
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 10);
  h.SemiTransform(1, true, 1);  // transform still arrives from the issuer?
  // Under lock-everything, T/O reads use rule (i): they cannot pass.
  h.Request(2, OpType::kRead, Protocol::kTimestampOrdering, 20);
  EXPECT_TRUE(h.GrantsFor(2).empty());
  h.Release(1);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
}

TEST(UnifiedQmTest, ImplementationLoggedAtTransformOrRelease) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 10);
  EXPECT_EQ(h.log().TotalRecords(), 0u);
  h.SemiTransform(1, true, 5);
  EXPECT_EQ(h.log().TotalRecords(), 1u);  // logged at transform
  h.Release(1);
  EXPECT_EQ(h.log().TotalRecords(), 1u);  // not logged twice
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Release(2, true, 6);
  EXPECT_EQ(h.log().TotalRecords(), 2u);  // 2PL logs at release
}

TEST(UnifiedQmTest, AbortRemovesWaiterAndUnblocksQueue) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(3, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Abort(2);
  h.Release(1);
  EXPECT_TRUE(h.GrantsFor(2).empty());
  EXPECT_EQ(h.GrantsFor(3).size(), 1u);
}

TEST(UnifiedQmTest, AbortOfHolderGrantsNext) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Abort(1);
  EXPECT_EQ(h.GrantsFor(2).size(), 1u);
}

TEST(UnifiedQmTest, TwoPlInsertsAtTailOfUnifiedQueue) {
  QmHarness h;
  // T/O waiter at ts 100 sits in the queue (behind a holder).
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 50);
  h.Request(2, OpType::kWrite, Protocol::kTimestampOrdering, 100);
  // 2PL arrives: hwm is 100, so it must queue behind txn 2.
  h.Request(3, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  const auto& q = h.qm().QueueOf(kX);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0].txn, 1u);
  EXPECT_EQ(q[1].txn, 2u);
  EXPECT_EQ(q[2].txn, 3u);
  // Grants follow queue order.
  h.Release(1);
  EXPECT_TRUE(h.GrantsFor(3).empty());
  h.Release(2);
  EXPECT_EQ(h.GrantsFor(3).size(), 1u);
}

TEST(UnifiedQmTest, FinalTsOnGrantedRequestRaisesWts) {
  QmHarness h;
  // PA write granted at ts 10, then negotiation raises it to 30.
  h.Request(1, OpType::kWrite, Protocol::kPrecedenceAgreement, 10);
  ASSERT_EQ(h.GrantsFor(1).size(), 1u);
  h.FinalTs(1, 30);
  // A T/O read at ts 20 must now be rejected (W-TS raised to 30).
  h.Request(2, OpType::kRead, Protocol::kTimestampOrdering, 20);
  EXPECT_TRUE(h.Rejected(2));
}

TEST(UnifiedQmTest, EmptiedQueuesGiveBackTheirEntryStorage) {
  // Three 2PL writers queue on each of 64 copies. On even copies the
  // writers release in turn; on odd ones the last is aborted while it
  // holds the lock. Every queue empties, by a release or by an abort, and
  // keeps no entry storage: its buffer waits on the manager's spare list
  // for the next queue that fills.
  QmHarness h;
  constexpr ItemId kCopies = 64;
  constexpr TxnId kWriters = 3;
  auto id = [](ItemId item, TxnId w) { return 1 + item * kWriters + w; };
  for (ItemId item = 0; item < kCopies; ++item) {
    for (TxnId w = 0; w < kWriters; ++w) {
      h.Request(id(item, w), OpType::kWrite, Protocol::kTwoPhaseLocking, 0,
                4, 1, CopyId{item, kDataSite});
    }
  }
  for (ItemId item = 0; item < kCopies; ++item) {
    const CopyId copy{item, kDataSite};
    ASSERT_EQ(h.qm().QueueOf(copy).size(), kWriters);
    for (TxnId w = 0; w + 1 < kWriters; ++w) {
      h.Release(id(item, w), true, id(item, w), copy);
    }
    if (item % 2 == 0) {
      h.Release(id(item, kWriters - 1), true, 1, copy);
    } else {
      ASSERT_EQ(h.GrantsFor(id(item, kWriters - 1)).size(), 1u);
      h.Abort(id(item, kWriters - 1), copy);
    }
  }
  for (ItemId item = 0; item < kCopies; ++item) {
    const std::vector<QueueEntry>& q = h.qm().QueueOf(CopyId{item, kDataSite});
    EXPECT_TRUE(q.empty()) << "copy " << item;
    EXPECT_EQ(q.capacity(), 0u) << "copy " << item;
  }
}

TEST(UnifiedQmTest, WaitEdgesReflectBlocking) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  h.Request(2, OpType::kWrite, Protocol::kTwoPhaseLocking, 0);
  std::vector<WaitEdge> edges;
  h.qm().CollectWaitEdges(&edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2u);
  EXPECT_EQ(edges[0].holder, 1u);
}

TEST(UnifiedQmTest, WaitEdgesUnderSemiLocks) {
  QmHarness h;
  h.Request(1, OpType::kWrite, Protocol::kTimestampOrdering, 10);
  h.SemiTransform(1, true, 1);
  // T/O read is granted pre-scheduled over the SWL: it can execute, but
  // its *upgrade* (and hence its release) waits on txn 1 — that residual
  // wait must appear as an edge (docs/architecture.md, "Deadlock
  // detection"), while grant-blocking edges must not (it is not blocked
  // from executing).
  h.Request(2, OpType::kRead, Protocol::kTimestampOrdering, 20);
  // 2PL read waits on the SWL for its grant.
  h.Request(3, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  std::vector<WaitEdge> edges;
  h.qm().CollectWaitEdges(&edges);
  bool found_3_waits_1 = false;
  bool found_2_waits_1 = false;
  for (const auto& e : edges) {
    if (e.waiter == 3 && e.holder == 1) found_3_waits_1 = true;
    if (e.waiter == 2 && e.holder == 1) found_2_waits_1 = true;
    EXPECT_NE(e.waiter, 1u);  // txn 1 waits on nothing
  }
  EXPECT_TRUE(found_3_waits_1);
  EXPECT_TRUE(found_2_waits_1);
}

TEST(UnifiedQmTest, GrantValueCarriesStoreContents) {
  QmHarness h;
  h.qm().mutable_store()->Write(kX, 999);
  h.Request(1, OpType::kRead, Protocol::kTwoPhaseLocking, 0);
  ASSERT_EQ(h.GrantsFor(1).size(), 1u);
  EXPECT_EQ(h.GrantsFor(1)[0].value, 999u);
}

}  // namespace
}  // namespace unicc
