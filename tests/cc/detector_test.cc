// Unit tests of deadlock detection: the centralized detector's snapshot
// round bookkeeping, victim policy (youngest 2PL member; never PA; skip
// all-PA cycles), victim routing and stop-flag behaviour, and the probe
// detector's data-site half. Protocols and home sites come only from the
// wait edges' holder fields.
#include "deadlock/central_detector.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "cc/unified/queue_manager.h"
#include "deadlock/probe_detector.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"

namespace unicc {
namespace {

constexpr SiteId kDetectorSite = 9;
constexpr SiteId kDataSiteA = 1;
constexpr SiteId kDataSiteB = 2;
constexpr SiteId kUserSite = 0;
constexpr SiteId kUserSiteB = 3;

// `waiter` waits on `holder`, which runs `proto` and is homed at `home`.
WaitEdge Edge(TxnId waiter, TxnId holder,
              Protocol proto = Protocol::kTwoPhaseLocking,
              SiteId home = kUserSite) {
  return WaitEdge{waiter, holder, home, proto};
}

class DetectorHarness {
 public:
  explicit DetectorHarness(Duration round_timeout = 0) {
    NetworkOptions net;
    net.base_delay = kMillisecond;
    net.local_delay = 100;
    transport_ = std::make_unique<SimTransport>(&sim_, net, Rng(5));
    // Data sites answer snapshot requests with scripted edges. Site B can
    // be told to swallow its next replies (a lossy network's dropped
    // WfgSnapshotReply).
    for (SiteId s : {kDataSiteA, kDataSiteB}) {
      transport_->RegisterSite(s, [this, s](SiteId from, const Message& m) {
        if (const auto* req = std::get_if<msg::WfgSnapshotRequest>(&m)) {
          if (s == kDataSiteB && drop_replies_ > 0) {
            --drop_replies_;
            return;
          }
          msg::WfgSnapshotReply reply;
          reply.round = req->round;
          reply.edges = edges_[s];
          transport_->Send(s, from, reply);
        }
      });
    }
    round_timeout_ = round_timeout;
    // The user sites record the victims they are sent.
    for (SiteId u : {kUserSite, kUserSiteB}) {
      transport_->RegisterSite(u, [this, u](SiteId, const Message& m) {
        if (const auto* v = std::get_if<msg::Victim>(&m)) {
          victims_.push_back(v->txn);
          victims_at_[u].push_back(v->txn);
        }
      });
    }
    // The detector needs no log.
    CcContext ctx{&sim_, transport_.get(), nullptr};
    CentralDetectorOptions opt;
    opt.interval = 10 * kMillisecond;
    opt.round_timeout = round_timeout_;
    detector_ = std::make_unique<CentralDeadlockDetector>(
        kDetectorSite, ctx, opt, std::vector<SiteId>{kDataSiteA, kDataSiteB});
    transport_->RegisterSite(kDetectorSite,
                             [this](SiteId, const Message& m) {
                               if (const auto* r =
                                       std::get_if<msg::WfgSnapshotReply>(
                                           &m)) {
                                 detector_->OnSnapshotReply(*r);
                               }
                             });
    detector_->SetStopFlag(&stop_);
  }

  void SetEdges(SiteId site, std::vector<WaitEdge> edges) {
    edges_[site] = std::move(edges);
  }
  // Site B swallows its next `n` snapshot replies.
  void DropNextReplies(int n) { drop_replies_ = n; }

  void RunRounds(int n) {
    detector_->Start();
    sim_.RunUntil(sim_.Now() +
                  static_cast<Duration>(n) * 10 * kMillisecond +
                  5 * kMillisecond);
    stop_ = true;
    sim_.RunToCompletion();
  }

  const std::vector<TxnId>& victims() const { return victims_; }
  std::vector<TxnId> victims_at(SiteId user_site) const {
    auto it = victims_at_.find(user_site);
    return it == victims_at_.end() ? std::vector<TxnId>{} : it->second;
  }
  CentralDeadlockDetector& detector() { return *detector_; }

 private:
  Simulator sim_;
  std::unique_ptr<SimTransport> transport_;
  std::unique_ptr<CentralDeadlockDetector> detector_;
  std::map<SiteId, std::vector<WaitEdge>> edges_;
  std::vector<TxnId> victims_;
  std::map<SiteId, std::vector<TxnId>> victims_at_;
  bool stop_ = false;
  Duration round_timeout_ = 0;
  int drop_replies_ = 0;
};

TEST(CentralDetectorTest, NoEdgesNoVictims) {
  DetectorHarness h;
  h.RunRounds(3);
  EXPECT_TRUE(h.victims().empty());
  EXPECT_GE(h.detector().rounds_completed(), 1u);
}

TEST(CentralDetectorTest, AcyclicWaitsNoVictims) {
  DetectorHarness h;
  h.SetEdges(kDataSiteA, {Edge(1, 2), Edge(2, 3)});
  h.SetEdges(kDataSiteB, {Edge(3, 4)});
  h.RunRounds(3);
  EXPECT_TRUE(h.victims().empty());
}

TEST(CentralDetectorTest, CrossSiteCycleFindsYoungest2pl) {
  DetectorHarness h;
  // Cycle 1 -> 2 (site A), 2 -> 1 (site B); both 2PL: victim is the
  // youngest (largest id), i.e. txn 2.
  h.SetEdges(kDataSiteA, {Edge(1, 2)});
  h.SetEdges(kDataSiteB, {Edge(2, 1)});
  h.RunRounds(1);
  ASSERT_FALSE(h.victims().empty());
  EXPECT_EQ(h.victims().front(), 2u);
}

TEST(CentralDetectorTest, PaMembersAreNeverVictims) {
  DetectorHarness h;
  h.SetEdges(kDataSiteA, {Edge(5, 6, Protocol::kTwoPhaseLocking)});
  h.SetEdges(kDataSiteB, {Edge(6, 5, Protocol::kPrecedenceAgreement)});
  h.RunRounds(1);
  ASSERT_FALSE(h.victims().empty());
  EXPECT_EQ(h.victims().front(), 6u);  // the 2PL member, not the PA one
}

// Only the edges' holder_proto says the members run PA.
TEST(CentralDetectorTest, AllPaCycleIsSkipped) {
  DetectorHarness h;
  h.SetEdges(kDataSiteA, {Edge(5, 6, Protocol::kPrecedenceAgreement)});
  h.SetEdges(kDataSiteB, {Edge(6, 5, Protocol::kPrecedenceAgreement)});
  h.RunRounds(2);
  EXPECT_TRUE(h.victims().empty());
  EXPECT_GE(h.detector().cycles_skipped(), 1u);
}

// The victim is the youngest 2PL member, not the youngest member, and the
// Victim goes to the home site its edges name.
TEST(CentralDetectorTest, VictimGoesToItsHomeSite) {
  DetectorHarness h;
  // Cycle 1 -> 4 -> 3 -> 1: 4 runs PA, 3 and 1 run 2PL; 3 is homed at the
  // second user site.
  h.SetEdges(kDataSiteA,
             {Edge(1, 4, Protocol::kPrecedenceAgreement),
              Edge(4, 3, Protocol::kTwoPhaseLocking, kUserSiteB)});
  h.SetEdges(kDataSiteB, {Edge(3, 1, Protocol::kTwoPhaseLocking)});
  h.RunRounds(1);
  ASSERT_FALSE(h.victims().empty());
  EXPECT_EQ(h.victims_at(kUserSiteB), std::vector<TxnId>{3});
  EXPECT_TRUE(h.victims_at(kUserSite).empty());
}

TEST(CentralDetectorTest, ToFallbackWhenNo2plInCycle) {
  DetectorHarness h;
  h.SetEdges(kDataSiteA, {Edge(5, 6, Protocol::kTimestampOrdering)});
  h.SetEdges(kDataSiteB, {Edge(6, 5, Protocol::kTimestampOrdering)});
  h.RunRounds(1);
  ASSERT_FALSE(h.victims().empty());
  EXPECT_EQ(h.victims().front(), 6u);
  EXPECT_GE(h.detector().non_2pl_victims(), 1u);
}

TEST(CentralDetectorTest, TwoIndependentCyclesTwoVictims) {
  DetectorHarness h;
  h.SetEdges(kDataSiteA, {Edge(1, 2), Edge(2, 1)});
  h.SetEdges(kDataSiteB, {Edge(10, 11), Edge(11, 10)});
  h.RunRounds(1);
  EXPECT_EQ(h.victims().size(), 2u);
}

// A lost snapshot reply without a round timeout stalls detection forever:
// the round's replies never complete, so no new round ever starts. This
// is why [policy] detector_timeout_ms is mandatory on lossy networks.
TEST(CentralDetectorTest, LostReplyStallsDetectionWithoutTimeout) {
  DetectorHarness h;  // round_timeout = 0: wait forever
  h.DropNextReplies(1);
  h.SetEdges(kDataSiteA, {Edge(1, 2)});
  h.SetEdges(kDataSiteB, {Edge(2, 1)});
  h.RunRounds(5);
  EXPECT_TRUE(h.victims().empty());
  EXPECT_EQ(h.detector().rounds_completed(), 0u);
  EXPECT_EQ(h.detector().rounds_abandoned(), 0u);
}

// With a round timeout the stalled round is abandoned at the next tick
// and a fresh round finds the deadlock.
TEST(CentralDetectorTest, RoundTimeoutAbandonsStalledRound) {
  DetectorHarness h(/*round_timeout=*/15 * kMillisecond);
  h.DropNextReplies(1);
  h.SetEdges(kDataSiteA, {Edge(1, 2)});
  h.SetEdges(kDataSiteB, {Edge(2, 1)});
  h.RunRounds(5);
  EXPECT_GE(h.detector().rounds_abandoned(), 1u);
  EXPECT_GE(h.detector().rounds_completed(), 1u);
  ASSERT_FALSE(h.victims().empty());
  EXPECT_EQ(h.victims().front(), 2u);  // victim policy is unchanged
}

TEST(CentralDetectorTest, StopFlagHaltsTicks) {
  DetectorHarness h;
  h.RunRounds(1);  // RunRounds sets the stop flag and drains
  const auto rounds = h.detector().rounds_completed();
  // No further activity is possible: the simulator is empty.
  EXPECT_GE(rounds, 1u);
}

// A holder's queue entry outlives its commit until its Release arrives. A
// probe that reaches the data site in that window must still go to the
// holder's home site, which the waiter's edge names.
TEST(ProbeQueryTest, ProbeReachesCommittedHolderBeforeItsRelease) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = kMillisecond;
  net.local_delay = 100;
  SimTransport transport(&sim, net, Rng(5));
  ImplementationLog log;
  CcContext ctx{&sim, &transport, &log};
  UnifiedQueueManager qm(kDataSiteA, ctx, UnifiedQmOptions{});
  transport.RegisterSite(kDataSiteA, [&qm](SiteId, const Message& m) {
    if (const auto* r = std::get_if<msg::CcRequest>(&m)) {
      qm.OnRequest(*r);
    } else if (const auto* rel = std::get_if<msg::Release>(&m)) {
      qm.OnRelease(*rel);
    }
  });
  std::map<SiteId, std::vector<msg::Probe>> probes;
  for (SiteId u : {kUserSite, kUserSiteB}) {
    transport.RegisterSite(u, [&probes, u](SiteId, const Message& m) {
      if (const auto* p = std::get_if<msg::Probe>(&m)) {
        probes[u].push_back(*p);
      }
    });
  }
  const CopyId x{0, kDataSiteA};
  auto write = [&](TxnId txn, SiteId home) {
    msg::CcRequest m;
    m.txn = txn;
    m.attempt = 1;
    m.copy = x;
    m.op = OpType::kWrite;
    m.reply_to = home;
    transport.Send(home, kDataSiteA, m);
    sim.RunToCompletion();
  };
  write(7, kUserSiteB);  // granted
  write(8, kUserSite);   // waits on 7
  // Txn 7 commits at its home: its Release is sent but not yet delivered.
  transport.Send(kUserSiteB, kDataSiteA,
                 msg::Release{7, 1, x, /*has_write=*/true, 70});
  HandleProbeQuery(kDataSiteA, ctx, qm,
                   msg::ProbeQuery{8, 1, /*target=*/8, /*hops=*/0});
  sim.RunToCompletion();
  ASSERT_EQ(probes[kUserSiteB].size(), 1u);
  EXPECT_EQ(probes[kUserSiteB][0].initiator, 8u);
  EXPECT_EQ(probes[kUserSiteB][0].target, 7u);
  EXPECT_EQ(probes[kUserSiteB][0].hops, 1u);
  EXPECT_TRUE(probes[kUserSite].empty());
  // The Release then arrived and freed the copy for txn 8.
  ASSERT_EQ(qm.QueueOf(x).size(), 1u);
  EXPECT_EQ(qm.QueueOf(x)[0].txn, 8u);
  EXPECT_TRUE(qm.QueueOf(x)[0].granted);
}

}  // namespace
}  // namespace unicc
