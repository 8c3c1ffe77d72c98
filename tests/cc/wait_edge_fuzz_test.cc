// Differential fuzz of UnifiedQueueManager::CollectWaitEdges against a
// full walk. The manager snapshots only the queues its live index lists;
// the reference below is the per-queue edge logic applied to every queue
// ever touched, in first-touch order. Random multi-copy request / release /
// abort / transform / final-timestamp traffic drives queues empty and
// non-empty over and over, and after every step both must return the same
// edges in the same order (victim choice depends on that order).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "cc/unified/queue_manager.h"
#include "common/rng.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"
#include "txn/timestamp.h"

namespace unicc {
namespace {

constexpr SiteId kUserSite = 0;
constexpr SiteId kDataSite = 1;
constexpr SiteId kUserSiteB = 2;
constexpr ItemId kCopies = 6;

// Odd transactions are homed at a second user site, so edges must name
// each holder's own home.
SiteId HomeOf(TxnId txn) { return txn % 2 == 0 ? kUserSite : kUserSiteB; }

// The full-walk edges of one queue: a copy of the manager's per-queue edge
// rules, applied to QueueOf().
void AppendQueueEdges(const std::vector<QueueEntry>& q, bool semi_locks,
                      std::vector<WaitEdge>* out) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    const QueueEntry& e = q[i];
    if (e.granted) {
      if (!e.normal) {
        for (const QueueEntry& g : q) {
          if (&g == &e || !g.granted) continue;
          if (g.grant_seq < e.grant_seq && LocksConflict(g.lock, e.lock) &&
              g.txn != e.txn) {
            out->push_back(WaitEdge{e.txn, g.txn, g.reply_to, g.proto});
          }
        }
      }
      continue;
    }
    if (e.mark == EntryMark::kBlocked || !e.confirmed) continue;
    for (std::size_t j = 0; j < q.size(); ++j) {
      if (i == j) continue;
      const QueueEntry& other = q[j];
      if (other.txn == e.txn) continue;
      if (other.granted) {
        const bool to_semantics =
            semi_locks && e.proto == Protocol::kTimestampOrdering;
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
        if (blocks) {
          out->push_back(
              WaitEdge{e.txn, other.txn, other.reply_to, other.proto});
        }
      } else if (other.prec < e.prec) {
        out->push_back(
            WaitEdge{e.txn, other.txn, other.reply_to, other.proto});
      }
    }
  }
}

struct Case {
  std::uint64_t seed;
  bool semi_locks;
};

class WaitEdgeFuzzTest : public ::testing::TestWithParam<Case> {};

TEST_P(WaitEdgeFuzzTest, LiveSnapshotMatchesFullWalk) {
  const Case c = GetParam();
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(1));
  ImplementationLog log;
  transport.RegisterSite(kUserSite, [](SiteId, const Message&) {});
  transport.RegisterSite(kUserSiteB, [](SiteId, const Message&) {});
  CcContext ctx{&sim, &transport, &log};
  UnifiedQmOptions options;
  options.semi_locks = c.semi_locks;
  UnifiedQueueManager qm(kDataSite, ctx, options);
  transport.RegisterSite(kDataSite, [](SiteId, const Message&) {});

  Rng rng(c.seed * 7919 + 3);
  TimestampGenerator tsgen;
  std::vector<CopyId> touched;  // first-touch order
  auto touch = [&](const CopyId& copy) {
    if (std::find(touched.begin(), touched.end(), copy) == touched.end()) {
      touched.push_back(copy);
    }
  };

  struct Live {
    Attempt attempt = 1;
    Protocol proto = Protocol::kTwoPhaseLocking;
    OpType op = OpType::kRead;
    bool multi = false;
    bool transformed = false;
    bool finalized = false;
  };
  // One request per (txn, copy); a transaction may hold several copies,
  // so edges can chain across queues.
  std::map<std::pair<TxnId, ItemId>, Live> live;
  TxnId next_txn = 1;

  auto find_entry = [&](TxnId txn, const CopyId& copy) {
    const auto& q = qm.QueueOf(copy);
    return std::find_if(q.begin(), q.end(),
                        [&](const QueueEntry& e) { return e.txn == txn; });
  };
  auto send_request = [&](TxnId txn, const CopyId& copy, const Live& l) {
    msg::CcRequest m;
    m.txn = txn;
    m.attempt = l.attempt;
    m.copy = copy;
    m.op = l.op;
    m.proto = l.proto;
    m.ts = tsgen.Next(sim.Now()) + rng.UniformInt(3000);
    m.backoff_interval = 1 + rng.UniformInt(64);
    m.txn_requests = l.multi ? 2 : 1;
    m.reply_to = HomeOf(txn);
    touch(copy);
    qm.OnRequest(m);
  };

  std::uint64_t nonempty_snapshots = 0;
  std::uint64_t empty_to_nonempty = 0;
  std::vector<bool> was_empty(kCopies, true);
  for (int step = 0; step < 6000; ++step) {
    // Bursts of arrivals alternate with drains, so queues keep emptying
    // and refilling.
    const bool draining = (step / 300) % 2 == 1;
    const int action = static_cast<int>(rng.UniformInt(12));
    if ((!draining && action < 5) || live.empty()) {
      // A new request, from a new or an already live transaction.
      TxnId txn = next_txn;
      if (!live.empty() && rng.Bernoulli(0.4)) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
        txn = it->first.first;
      }
      const CopyId copy{static_cast<ItemId>(rng.UniformInt(kCopies)),
                        kDataSite};
      if (live.count({txn, copy.item}) != 0) continue;
      if (txn == next_txn) ++next_txn;
      Live l;
      l.proto = static_cast<Protocol>(rng.UniformInt(3));
      l.op = rng.Bernoulli(0.5) ? OpType::kRead : OpType::kWrite;
      l.multi =
          l.proto == Protocol::kPrecedenceAgreement && rng.Bernoulli(0.5);
      send_request(txn, copy, l);
      if (find_entry(txn, copy) != qm.QueueOf(copy).end()) {
        live.emplace(std::make_pair(txn, copy.item), l);
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
      const TxnId txn = it->first.first;
      const CopyId copy{it->first.second, kDataSite};
      Live& l = it->second;
      const auto entry = find_entry(txn, copy);
      if (entry == qm.QueueOf(copy).end()) {
        live.erase(it);
        continue;
      }
      const bool needs_final =
          entry->mark == EntryMark::kBlocked || !entry->confirmed;
      touch(copy);
      if (action < 8 && entry->granted) {
        qm.OnRelease(msg::Release{txn, l.attempt, copy,
                                  l.op == OpType::kWrite, txn});
        live.erase(it);
      } else if (action == 8 && entry->granted &&
                 l.proto == Protocol::kTimestampOrdering && !l.transformed) {
        qm.OnSemiTransform(msg::SemiTransform{
            txn, l.attempt, copy, l.op == OpType::kWrite, txn});
        l.transformed = true;
      } else if (action == 9 && needs_final && !l.finalized) {
        qm.OnFinalTs(msg::FinalTs{txn, l.attempt, copy,
                                  entry->prec.ts + rng.UniformInt(40)});
        l.finalized = true;
      } else if (action >= 10 || draining) {
        qm.OnAbort(msg::AbortTxn{txn, l.attempt, copy});
        if (!draining && rng.Bernoulli(0.3)) {
          ++l.attempt;
          l.transformed = false;
          l.finalized = false;
          send_request(txn, copy, l);
          if (find_entry(txn, copy) == qm.QueueOf(copy).end()) {
            live.erase(it);
          }
        } else {
          live.erase(it);
        }
      }
    }
    sim.RunToCompletion();

    std::vector<WaitEdge> want;
    for (const CopyId& copy : touched) {
      AppendQueueEdges(qm.QueueOf(copy), c.semi_locks, &want);
    }
    std::vector<WaitEdge> got;
    qm.CollectWaitEdges(&got);
    ASSERT_EQ(got, want) << "step " << step;
    for (const WaitEdge& e : got) {
      ASSERT_EQ(e.holder_home, HomeOf(e.holder)) << "step " << step;
    }
    if (!got.empty()) ++nonempty_snapshots;
    for (ItemId i = 0; i < kCopies; ++i) {
      const bool empty = qm.QueueOf(CopyId{i, kDataSite}).empty();
      if (was_empty[i] && !empty) ++empty_to_nonempty;
      was_empty[i] = empty;
    }
  }
  // The traffic must have produced edges and cycled queues through empty.
  EXPECT_GT(nonempty_snapshots, 100u);
  EXPECT_GT(empty_to_nonempty, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WaitEdgeFuzzTest,
    ::testing::Values(Case{1, true}, Case{2, true}, Case{3, true},
                      Case{4, true}, Case{5, false}, Case{6, false}));

}  // namespace
}  // namespace unicc
