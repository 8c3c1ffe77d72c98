// Basic T/O, the one pure backend with an implementation of its own: pure
// 2PL and pure PA run the unified queue manager (unified_qm_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "cc/to/to_manager.h"
#include "common/rng.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"

namespace unicc {
namespace {

constexpr SiteId kUserSite = 0;
constexpr SiteId kDataSite = 1;
const CopyId kX{0, kDataSite};

// Minimal harness around one BasicToManager.
class Harness {
 public:
  Harness() {
    NetworkOptions net;
    net.base_delay = 1;
    net.local_delay = 1;
    transport_ = std::make_unique<SimTransport>(&sim_, net, Rng(1));
    transport_->RegisterSite(kUserSite, [this](SiteId, const Message& m) {
      inbox_.push_back(m);
    });
    CcContext ctx{&sim_, transport_.get(), &log_};
    backend_ = std::make_unique<BasicToManager>(kDataSite, ctx);
    transport_->RegisterSite(kDataSite, [](SiteId, const Message&) {});
  }

  void Request(TxnId txn, Attempt attempt, OpType op, Timestamp ts) {
    msg::CcRequest m;
    m.txn = txn;
    m.attempt = attempt;
    m.copy = kX;
    m.op = op;
    m.proto = Protocol::kTimestampOrdering;
    m.ts = ts;
    m.reply_to = kUserSite;
    backend_->OnRequest(m);
    sim_.RunToCompletion();
  }
  void Release(TxnId txn, Attempt attempt, bool has_write = false,
               std::uint64_t v = 0) {
    backend_->OnRelease(msg::Release{txn, attempt, kX, has_write, v});
    sim_.RunToCompletion();
  }
  void Abort(TxnId txn, Attempt attempt) {
    backend_->OnAbort(msg::AbortTxn{txn, attempt, kX});
    sim_.RunToCompletion();
  }

  int Grants(TxnId txn) const {
    int n = 0;
    for (const auto& m : inbox_) {
      if (const auto* g = std::get_if<msg::Grant>(&m)) {
        if (g->txn == txn) ++n;
      }
    }
    return n;
  }
  bool Rejected(TxnId txn) const {
    for (const auto& m : inbox_) {
      if (const auto* r = std::get_if<msg::Reject>(&m)) {
        if (r->txn == txn) return true;
      }
    }
    return false;
  }

  Simulator sim_;
  std::unique_ptr<SimTransport> transport_;
  ImplementationLog log_;
  std::unique_ptr<BasicToManager> backend_;
  std::vector<Message> inbox_;
};

TEST(BasicToManagerTest, GrantsInTimestampOrder) {
  Harness h;
  h.Request(1, 1, OpType::kWrite, 10);
  EXPECT_EQ(h.Grants(1), 1);  // prewrite accepted immediately
  // A read with a bigger timestamp must wait for the prewrite to commit.
  h.Request(2, 1, OpType::kRead, 20);
  EXPECT_EQ(h.Grants(2), 0);
  h.Release(1, 1, true, 77);
  EXPECT_EQ(h.Grants(2), 1);
  EXPECT_EQ(h.backend_->store().Read(kX), 77u);
}

TEST(BasicToManagerTest, RejectsStaleRead) {
  Harness h;
  h.Request(1, 1, OpType::kWrite, 10);
  h.Request(2, 1, OpType::kRead, 5);
  EXPECT_TRUE(h.Rejected(2));
}

TEST(BasicToManagerTest, RejectsStaleWriteAgainstReadTs) {
  Harness h;
  h.Request(1, 1, OpType::kRead, 30);
  EXPECT_EQ(h.Grants(1), 1);
  h.Request(2, 1, OpType::kWrite, 20);
  EXPECT_TRUE(h.Rejected(2));
}

TEST(BasicToManagerTest, ReadBelowPendingPrewriteIsRejected) {
  Harness h;
  h.Request(1, 1, OpType::kWrite, 50);
  // W-TS advanced to 50 at prewrite acceptance; a read at ts 40 is stale
  // (Basic T/O keeps a single version) and must be rejected.
  h.Request(2, 1, OpType::kRead, 40);
  EXPECT_TRUE(h.Rejected(2));
  EXPECT_EQ(h.Grants(2), 0);
}

TEST(BasicToManagerTest, WritesInstallInTimestampOrder) {
  Harness h;
  h.Request(1, 1, OpType::kWrite, 10);
  h.Request(2, 1, OpType::kWrite, 20);
  // Commit the later write first: installation must wait for txn 1.
  h.Release(2, 1, true, 200);
  EXPECT_EQ(h.backend_->store().Read(kX), 0u);
  h.Release(1, 1, true, 100);
  // Both installed now, in timestamp order: final value is txn 2's.
  EXPECT_EQ(h.backend_->store().Read(kX), 200u);
  const auto& records = h.log_.LogOf(kX);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 1u);
  EXPECT_EQ(records[1].txn, 2u);
}

TEST(BasicToManagerTest, AbortUnblocksWaitingRead) {
  Harness h;
  h.Request(1, 1, OpType::kWrite, 10);
  h.Request(2, 1, OpType::kRead, 20);
  EXPECT_EQ(h.Grants(2), 0);
  h.Abort(1, 1);
  EXPECT_EQ(h.Grants(2), 1);
}

TEST(BasicToManagerTest, NoDeadlockEdgesCycle) {
  // Wait edges always point to smaller timestamps: acyclic by design.
  Harness h;
  h.Request(1, 1, OpType::kWrite, 10);
  h.Request(2, 1, OpType::kRead, 20);
  std::vector<WaitEdge> edges;
  h.backend_->CollectWaitEdges(&edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].waiter, 2u);
  EXPECT_EQ(edges[0].holder, 1u);
}

// ------------------------------------------------ wait-edge snapshots ----

// Where a (txn, copy) request stands at its copy. Reads granted on arrival
// and committed prewrites leave nothing to release or abort.
enum class Held { kGone, kWaiting, kGranted };

Held HeldAt(const BasicToManager& b, TxnId txn, Attempt attempt,
            const CopyId& copy) {
  const BasicToManager::Copy* c = b.CopyStateOf(copy);
  if (c == nullptr) return Held::kGone;
  for (const auto& r : c->waiting) {
    if (r.txn == txn && r.attempt == attempt) return Held::kWaiting;
  }
  for (const auto& p : c->prewrites) {
    if (p.txn == txn && p.attempt == attempt && !p.release_pending) {
      return Held::kGranted;
    }
  }
  return Held::kGone;
}

// The pre-index full walk: every copy, reads wait on older prewrites.
std::vector<WaitEdge> FullWalk(const BasicToManager& b,
                               const std::vector<CopyId>& touched) {
  std::vector<WaitEdge> out;
  for (const CopyId& copy : touched) {
    const BasicToManager::Copy* c = b.CopyStateOf(copy);
    if (c == nullptr) continue;
    for (const auto& r : c->waiting) {
      for (const auto& p : c->prewrites) {
        if (p.ts < r.ts) {
          out.push_back(WaitEdge{r.txn, p.txn, p.reply_to,
                                 Protocol::kTimestampOrdering});
        }
      }
    }
  }
  return out;
}

// Odd transactions are homed at a second user site, so edges must name
// each holder's own home.
constexpr SiteId kUserSiteB = 2;
SiteId HomeOf(TxnId txn) { return txn % 2 == 0 ? kUserSite : kUserSiteB; }

// Drives random multi-copy request/release/abort traffic through one
// BasicToManager, in bursts that alternate with drains so queues keep
// emptying and refilling. After every step CollectWaitEdges(), which walks
// only the live queues, must return exactly FullWalk(backend, touched):
// the edges of every copy ever touched, in first-touch order.
void FuzzWaitEdgeSnapshots(std::uint64_t seed) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(1));
  ImplementationLog log;
  transport.RegisterSite(kUserSite, [](SiteId, const Message&) {});
  transport.RegisterSite(kUserSiteB, [](SiteId, const Message&) {});
  BasicToManager backend(kDataSite, CcContext{&sim, &transport, &log});
  transport.RegisterSite(kDataSite, [](SiteId, const Message&) {});

  struct Live {
    Attempt attempt = 1;
    OpType op = OpType::kRead;
  };
  std::map<std::pair<TxnId, ItemId>, Live> live;
  std::map<TxnId, Timestamp> ts_of;  // one timestamp per transaction
  std::vector<CopyId> touched;
  Rng rng(seed * 6151 + 29);
  TxnId next_txn = 1;
  Timestamp clock = 0;
  std::uint64_t edge_snapshots = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool draining = (step / 200) % 2 == 1;
    if ((!draining && rng.Bernoulli(0.5)) || live.empty()) {
      TxnId txn = next_txn;
      if (!live.empty() && rng.Bernoulli(0.4)) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
        txn = it->first.first;
      }
      const CopyId copy{static_cast<ItemId>(rng.UniformInt(5)), kDataSite};
      if (live.count({txn, copy.item}) != 0) continue;
      if (txn == next_txn) {
        ++next_txn;
        clock += 1 + rng.UniformInt(4);
        ts_of[txn] = clock;
      }
      Live l;
      l.op = rng.Bernoulli(0.5) ? OpType::kRead : OpType::kWrite;
      msg::CcRequest m;
      m.txn = txn;
      m.attempt = l.attempt;
      m.copy = copy;
      m.op = l.op;
      m.proto = Protocol::kTimestampOrdering;
      m.ts = ts_of[txn];
      m.reply_to = HomeOf(txn);
      if (std::find(touched.begin(), touched.end(), copy) == touched.end()) {
        touched.push_back(copy);
      }
      backend.OnRequest(m);
      if (HeldAt(backend, txn, l.attempt, copy) != Held::kGone) {
        live.emplace(std::make_pair(txn, copy.item), l);
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(live.size())));
      const TxnId txn = it->first.first;
      const CopyId copy{it->first.second, kDataSite};
      const Live l = it->second;
      live.erase(it);
      const Held h = HeldAt(backend, txn, l.attempt, copy);
      if (h == Held::kGranted && rng.Bernoulli(0.6)) {
        backend.OnRelease(msg::Release{txn, l.attempt, copy,
                                       l.op == OpType::kWrite, txn});
      } else if (h != Held::kGone) {
        backend.OnAbort(msg::AbortTxn{txn, l.attempt, copy});
      }
    }
    sim.RunToCompletion();

    std::vector<WaitEdge> got;
    backend.CollectWaitEdges(&got);
    ASSERT_EQ(got, FullWalk(backend, touched)) << "step " << step;
    for (const WaitEdge& e : got) {
      ASSERT_EQ(e.holder_home, HomeOf(e.holder)) << "step " << step;
    }
    if (!got.empty()) ++edge_snapshots;
  }
  EXPECT_GT(edge_snapshots, 100u);
}

TEST(BasicToManagerTest, LiveWaitEdgesMatchFullWalk) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FuzzWaitEdgeSnapshots(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace unicc
