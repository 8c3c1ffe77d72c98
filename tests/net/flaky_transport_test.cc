// Fault-layer unit and equivalence tests.
//
// The contracts that make fault injection safe to ship:
//   1. The fault schedule is positional — a pure function of (fault seed,
//      channel, per-channel sequence number). Two models with the same
//      options agree on every decision, in any query order.
//   2. Reliable kinds (Grant, FinalTs, Release, SemiTransform, AbortTxn)
//      are never dropped, and only receiver-idempotent kinds are ever
//      duplicated.
//   3. A FlakyTransport with no configured faults (force_flaky) is
//      byte-identical to SimTransport on every shipped scenario.
#include "net/flaky_transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/config.h"
#include "net/fault_model.h"
#include "runner/runner.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

#ifndef UNICC_SCENARIOS_DIR
#error "UNICC_SCENARIOS_DIR must point at the shipped scenarios/ directory"
#endif

namespace unicc {
namespace {

using runner::RunReport;
using runner::RunRequest;
using runner::RunSession;
using runner::RunStats;

constexpr MessageKind kReliableKinds[] = {
    MessageKind::kGrant, MessageKind::kFinalTs, MessageKind::kRelease,
    MessageKind::kSemiTransform, MessageKind::kAbortTxn};
constexpr MessageKind kLossyKinds[] = {
    MessageKind::kCcRequest,  MessageKind::kBackoff,
    MessageKind::kPaAccept,   MessageKind::kReject,
    MessageKind::kVictim,     MessageKind::kWfgSnapshotRequest,
    MessageKind::kWfgSnapshotReply};
constexpr MessageKind kDuplicableKinds[] = {
    MessageKind::kGrant, MessageKind::kBackoff, MessageKind::kPaAccept,
    MessageKind::kReject, MessageKind::kVictim};

NetworkOptions TestNet() {
  NetworkOptions net;
  net.base_delay = 5 * kMillisecond;
  net.jitter_mean = 2 * kMillisecond;
  net.local_delay = 100 * kMicrosecond;
  return net;
}

FaultOptions MessyFaults() {
  FaultOptions fo;
  fo.seed = 99;
  fo.loss = 0.3;
  fo.duplicate = 0.3;
  fo.reorder = 0.4;
  fo.reorder_delay = 10 * kMillisecond;
  return fo;
}

// Contract 1: every decision is a pure function of (seed, from, to, seq).
TEST(FaultModelTest, ScheduleIsPositional) {
  const NetworkOptions net = TestNet();
  const FaultModel a(MessyFaults(), net, 9);
  const FaultModel b(MessyFaults(), net, 9);

  // Query `a` forward and `b` backward: a stateful RNG stream would
  // diverge immediately; a positional schedule cannot.
  struct Key {
    SiteId from, to;
    std::uint64_t seq;
  };
  std::vector<Key> keys;
  for (SiteId from = 0; from < 6; ++from) {
    for (SiteId to = 0; to < 6; ++to) {
      for (std::uint64_t seq = 0; seq < 16; ++seq) {
        keys.push_back({from, to, seq});
      }
    }
  }
  std::vector<FaultModel::Decision> forward;
  std::vector<Duration> forward_delay;
  for (const Key& k : keys) {
    forward.push_back(
        a.Decide(MessageKind::kCcRequest, k.from, k.to, k.seq));
    forward_delay.push_back(a.LinkDelay(k.from, k.to, k.seq));
  }
  for (std::size_t i = keys.size(); i-- > 0;) {
    const Key& k = keys[i];
    const FaultModel::Decision d =
        b.Decide(MessageKind::kCcRequest, k.from, k.to, k.seq);
    EXPECT_EQ(d.drop, forward[i].drop);
    EXPECT_EQ(d.duplicate, forward[i].duplicate);
    EXPECT_EQ(d.extra, forward[i].extra);
    EXPECT_EQ(d.dup_extra, forward[i].dup_extra);
    EXPECT_EQ(b.LinkDelay(k.from, k.to, k.seq), forward_delay[i]);
  }
}

TEST(FaultModelTest, SeedChangesTheSchedule) {
  const NetworkOptions net = TestNet();
  FaultOptions fo = MessyFaults();
  fo.seed = 1;
  const FaultModel a(fo, net, 9);
  fo.seed = 2;
  const FaultModel b(fo, net, 9);
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    if (a.Decide(MessageKind::kCcRequest, 0, 1, seq).drop !=
        b.Decide(MessageKind::kCcRequest, 0, 1, seq).drop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "two fault seeds produced the same schedule";
}

// Contract 2: losing a reliable kind can strand committed state (a lost
// Release leaves zombie locks; no timeout may restart a committed
// transaction), so even loss = 1 - epsilon never drops one.
TEST(FaultModelTest, ReliableKindsAreNeverDropped) {
  FaultOptions fo;
  fo.seed = 7;
  fo.loss = 0.999;
  const FaultModel model(fo, TestNet(), 9);
  for (MessageKind k : kReliableKinds) {
    EXPECT_TRUE(FaultModel::Reliable(k)) << MessageKindName(k);
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      EXPECT_FALSE(model.Decide(k, 0, 1, seq).drop) << MessageKindName(k);
    }
  }
  int dropped = 0;
  for (MessageKind k : kLossyKinds) {
    EXPECT_FALSE(FaultModel::Reliable(k)) << MessageKindName(k);
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      dropped += model.Decide(k, 0, 1, seq).drop ? 1 : 0;
    }
  }
  EXPECT_GT(dropped, 0) << "lossy kinds were never dropped at loss=0.999";
}

TEST(FaultModelTest, OnlyIdempotentKindsAreDuplicated) {
  FaultOptions fo;
  fo.seed = 7;
  fo.duplicate = 1.0;
  const FaultModel model(fo, TestNet(), 9);
  for (MessageKind k : kDuplicableKinds) {
    EXPECT_TRUE(FaultModel::Duplicable(k)) << MessageKindName(k);
    EXPECT_TRUE(model.Decide(k, 0, 1, 0).duplicate) << MessageKindName(k);
  }
  for (MessageKind k : {MessageKind::kCcRequest, MessageKind::kFinalTs,
                        MessageKind::kRelease, MessageKind::kSemiTransform,
                        MessageKind::kAbortTxn}) {
    EXPECT_FALSE(FaultModel::Duplicable(k)) << MessageKindName(k);
    EXPECT_FALSE(model.Decide(k, 0, 1, 0).duplicate) << MessageKindName(k);
  }
}

// Topology tiers: 9 sites in 3 regions. Blocked placement cuts contiguous
// id blocks; with zero jitter the link delay is exactly the tier base.
TEST(FaultModelTest, TopologyTiersAndPlacement) {
  NetworkOptions net = TestNet();
  net.jitter_mean = 0;
  FaultOptions fo;
  fo.seed = 3;
  fo.regions = 3;
  fo.placement = FaultOptions::Placement::kBlocked;
  fo.lan_delay = 2 * kMillisecond;
  fo.wan_delay = 10 * kMillisecond;
  fo.geo_delay = 50 * kMillisecond;
  const FaultModel blocked(fo, net, 9);
  EXPECT_EQ(blocked.RegionOf(0), 0u);
  EXPECT_EQ(blocked.RegionOf(2), 0u);
  EXPECT_EQ(blocked.RegionOf(3), 1u);
  EXPECT_EQ(blocked.RegionOf(8), 2u);
  EXPECT_EQ(blocked.LinkDelay(0, 1, 0), fo.lan_delay);  // same region
  EXPECT_EQ(blocked.LinkDelay(0, 4, 0), fo.wan_delay);  // adjacent
  EXPECT_EQ(blocked.LinkDelay(0, 7, 0), fo.geo_delay);  // distance 2
  EXPECT_EQ(blocked.LinkDelay(1, 1, 0), net.local_delay);

  fo.placement = FaultOptions::Placement::kInterleave;
  const FaultModel interleaved(fo, net, 9);
  for (SiteId s = 0; s < 9; ++s) {
    EXPECT_EQ(interleaved.RegionOf(s), s % 3u);
  }
}

// Crash windows are [at, at + down); overlapping outages chain through
// RecoverTime.
TEST(FaultModelTest, CrashWindowsChain) {
  FaultOptions fo;
  fo.crashes.push_back({1, 100 * kMillisecond, 50 * kMillisecond});
  fo.crashes.push_back({1, 140 * kMillisecond, 100 * kMillisecond});
  const FaultModel model(fo, TestNet(), 9);
  EXPECT_FALSE(model.DownAt(1, 99 * kMillisecond));
  EXPECT_TRUE(model.DownAt(1, 100 * kMillisecond));
  EXPECT_TRUE(model.DownAt(1, 149 * kMillisecond));  // inside both
  EXPECT_TRUE(model.DownAt(1, 200 * kMillisecond));  // second outage only
  EXPECT_FALSE(model.DownAt(1, 240 * kMillisecond));  // end is exclusive
  EXPECT_FALSE(model.DownAt(2, 120 * kMillisecond));  // other sites up
  // 120 ms falls in the first outage; recovery must clear the chained
  // second outage too.
  EXPECT_EQ(model.RecoverTime(1, 120 * kMillisecond), 240 * kMillisecond);
  EXPECT_EQ(model.RecoverTime(1, 50 * kMillisecond), 50 * kMillisecond);
}

TEST(FaultOptionsTest, ValidateRejectsBadKnobs) {
  FaultOptions ok;
  EXPECT_TRUE(ok.Validate(8).ok());

  FaultOptions loss = ok;
  loss.loss = 1.0;  // certain loss can never drain a workload
  EXPECT_FALSE(loss.Validate(8).ok());

  FaultOptions reorder = ok;
  reorder.reorder = 0.5;
  reorder.reorder_delay = 0;
  EXPECT_FALSE(reorder.Validate(8).ok());

  FaultOptions tiers = ok;
  tiers.regions = 2;
  tiers.lan_delay = 30 * kMillisecond;
  tiers.wan_delay = 10 * kMillisecond;
  EXPECT_FALSE(tiers.Validate(8).ok());

  FaultOptions crash_site = ok;
  crash_site.crashes.push_back({8, kMillisecond, kMillisecond});
  EXPECT_FALSE(crash_site.Validate(8).ok());  // detector not crashable

  FaultOptions crash_down = ok;
  crash_down.crashes.push_back({1, kMillisecond, 0});
  EXPECT_FALSE(crash_down.Validate(8).ok());
}

// Engine-level liveness rules: faults that can lose messages (or whole
// sites) require the recovery timeouts that re-cover them.
TEST(EngineOptionsTest, FaultKnobsRequireTimeouts) {
  EngineOptions eo;
  eo.fault.loss = 0.05;
  EXPECT_FALSE(eo.Validate().ok()) << "loss without request_timeout";
  eo.request_timeout = 400 * kMillisecond;
  EXPECT_FALSE(eo.Validate().ok())
      << "loss with a central detector needs a round timeout";
  eo.central_detector.round_timeout = 250 * kMillisecond;
  EXPECT_TRUE(eo.Validate().ok());

  EngineOptions crashed;
  crashed.fault.crashes.push_back(
      {1, 100 * kMillisecond, 50 * kMillisecond});
  EXPECT_FALSE(crashed.Validate().ok())
      << "crashes without request_timeout";
  crashed.request_timeout = 400 * kMillisecond;
  EXPECT_TRUE(crashed.Validate().ok());
}

// --- transport-level behaviour ----------------------------------------

struct Delivery {
  SimTime at = 0;
  MessageKind kind = MessageKind::kCcRequest;
};

class FlakyHarness {
 public:
  explicit FlakyHarness(FaultOptions fo) {
    NetworkOptions net = TestNet();
    net.jitter_mean = 0;
    model_ = std::make_unique<FaultModel>(fo, net, 2);
    transport_ =
        std::make_unique<FlakyTransport>(&sim_, net, Rng(1), model_.get());
    transport_->RegisterSite(0, [](SiteId, const Message&) {});
    transport_->RegisterSite(1, [this](SiteId, const Message& m) {
      delivered_.push_back({sim_.Now(), KindOf(m)});
    });
  }

  Simulator sim_;
  std::unique_ptr<FaultModel> model_;
  std::unique_ptr<FlakyTransport> transport_;
  std::vector<Delivery> delivered_;
};

TEST(FlakyTransportTest, DropsOnlyLossyKinds) {
  FaultOptions fo;
  fo.seed = 5;
  fo.loss = 0.999;
  FlakyHarness h(fo);
  for (int i = 0; i < 20; ++i) {
    h.transport_->Send(0, 1, msg::CcRequest{});
    h.transport_->Send(0, 1, msg::Grant{});
  }
  h.sim_.RunToCompletion();
  int grants = 0;
  for (const Delivery& d : h.delivered_) {
    EXPECT_EQ(d.kind, MessageKind::kGrant) << "a lossy kind survived";
    ++grants;
  }
  EXPECT_EQ(grants, 20);  // reliable kinds all arrive
  EXPECT_GT(h.transport_->dropped(), 0u);
  EXPECT_EQ(h.transport_->dropped() + h.delivered_.size(), 40u);
}

TEST(FlakyTransportTest, DuplicatesIdempotentKindsOnly) {
  FaultOptions fo;
  fo.seed = 5;
  fo.duplicate = 1.0;
  FlakyHarness h(fo);
  h.transport_->Send(0, 1, msg::CcRequest{});
  h.transport_->Send(0, 1, msg::Grant{});
  h.sim_.RunToCompletion();
  ASSERT_EQ(h.delivered_.size(), 3u);  // request once, grant twice
  EXPECT_EQ(h.transport_->duplicated(), 1u);
}

TEST(FlakyTransportTest, CrashGatingDropsLossyDefersReliable) {
  FaultOptions fo;
  // Site 1 is down for the first 50 ms of the run.
  fo.crashes.push_back({1, 0, 50 * kMillisecond});
  FlakyHarness h(fo);
  h.transport_->Send(0, 1, msg::CcRequest{});  // dropped: receiver down
  h.transport_->Send(0, 1, msg::Grant{});      // deferred past recovery
  h.sim_.RunToCompletion();
  ASSERT_EQ(h.delivered_.size(), 1u);
  EXPECT_EQ(h.delivered_[0].kind, MessageKind::kGrant);
  EXPECT_GE(h.delivered_[0].at, SimTime{50 * kMillisecond});
  EXPECT_EQ(h.transport_->dropped(), 1u);
}

// --- no-fault equivalence ---------------------------------------------

// The golden suite's snapshot format: %.17g doubles make any numeric
// drift visible.
std::string Snapshot(const RunStats& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "admitted=%llu committed=%llu makespan=%llu messages=%llu "
      "log_records=%llu replicas=%d victims=%llu rejects=%llu "
      "backoffs=%llu serializable=%d mean_s=%.17g p95_s=%.17g "
      "msgs_per_txn=%.17g cc_msgs_per_txn=%.17g throughput=%.17g",
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.committed),
      static_cast<unsigned long long>(s.makespan),
      static_cast<unsigned long long>(s.total_messages),
      static_cast<unsigned long long>(s.log_records),
      s.replicas_consistent ? 1 : 0,
      static_cast<unsigned long long>(s.deadlock_victims),
      static_cast<unsigned long long>(s.reject_restarts),
      static_cast<unsigned long long>(s.backoff_rounds),
      s.serializable ? 1 : 0, s.mean_s_ms, s.p95_s_ms, s.msgs_per_txn,
      s.cc_msgs_per_txn, s.throughput);
  return std::string(buf);
}

std::vector<std::string> ShippedScenarios() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(UNICC_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".ini") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

RunReport RunSpec(const ScenarioSpec& spec) {
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return (*session)->Run();
}

class NoFaultEquivalenceTest : public ::testing::TestWithParam<std::string> {
};

// Contract 3: a FlakyTransport whose model has nothing to do must be
// byte-identical to SimTransport — the no-fault path performs zero extra
// RNG draws. Runs every shipped scenario both ways (force_flaky swaps the
// transport without enabling any fault).
TEST_P(NoFaultEquivalenceTest, ForceFlakyIsByteIdentical) {
  auto baseline = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  if (baseline->engine.fault.Active()) {
    GTEST_SKIP() << "scenario configures real faults";
  }
  auto flaky = *baseline;
  flaky.engine.fault.force_flaky = true;

  const RunReport a = RunSpec(*baseline);
  const RunReport b = RunSpec(flaky);
  EXPECT_EQ(Snapshot(a.stats), Snapshot(b.stats))
      << GetParam() << ": no-fault FlakyTransport diverged";
  EXPECT_EQ(a.events_run, b.events_run)
      << GetParam() << ": no-fault FlakyTransport changed the event count";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, NoFaultEquivalenceTest,
    ::testing::ValuesIn(ShippedScenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return std::filesystem::path(info.param).stem().string();
    });

// The shipped flaky scenario really exercises the recovery machinery:
// messages are dropped and the issuer request timeout restarts through
// them, yet the run still drains and stays serializable.
TEST(FaultScenarioTest, FlakyMeshRecoversThroughTimeouts) {
  auto spec = ScenarioSpec::LoadFile(std::string(UNICC_SCENARIOS_DIR) +
                                     "/flaky_mesh.ini");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  RunRequest request;
  request.spec = &*spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const RunReport report = (*session)->Run();
  EXPECT_EQ(report.stats.committed, spec->TotalTxns());
  EXPECT_TRUE(report.stats.serializable);
  EXPECT_TRUE(report.stats.replicas_consistent);
  EXPECT_GT((*session)->metrics().timeout_restarts(), 0u)
      << "loss = 0.05 never tripped a request timeout";
}

}  // namespace
}  // namespace unicc
