#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "scenario/scenario.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace unicc {
namespace {

using test::RunWorkload;
using test::SmallEngine;
using test::SmallWorkload;

TEST(EngineTest, RejectsInvalidTransactions) {
  Engine engine(SmallEngine());
  TxnSpec bad;  // empty access set
  bad.id = 1;
  EXPECT_FALSE(engine.AddTransaction(0, bad).ok());
  TxnSpec out_of_range;
  out_of_range.id = 2;
  out_of_range.read_set = {10'000};
  EXPECT_FALSE(engine.AddTransaction(0, out_of_range).ok());
  TxnSpec bad_home;
  bad_home.id = 3;
  bad_home.read_set = {1};
  bad_home.home = 99;
  EXPECT_FALSE(engine.AddTransaction(0, bad_home).ok());
}

TEST(EngineTest, EmptyWorkloadTerminates) {
  // The periodic deadlock-detector tick must not keep an idle run alive.
  Engine engine(SmallEngine());
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.committed, 0u);
}

TEST(EngineTest, SingleTransactionCommits) {
  Engine engine(SmallEngine());
  TxnSpec t;
  t.id = 1;
  t.home = 0;
  t.read_set = {1};
  t.write_set = {2};
  t.compute_time = kMillisecond;
  ASSERT_TRUE(engine.AddTransaction(0, t).ok());
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_GT(s.mean_system_time_ms, 0);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
}

// Batch specs added out of arrival order: each arrival earlier than the
// batch FIFO's tail gets an admission event of its own, which owns its
// spec, so they are admitted in the reverse of the order they were added,
// and each must still commit exactly once.
TEST(EngineTest, BatchAddedInDecreasingTimeOrderCommitsEachOnce) {
  const EngineOptions eo = SmallEngine(29);
  std::map<TxnId, int> commits;
  EngineCallbacks callbacks;
  callbacks.on_commit = [&commits](const TxnResult& r) { ++commits[r.id]; };
  Engine engine(eo, callbacks);
  engine.SetProtocolPolicy(MixedProtocol(1, 1, 1, Rng(31)));
  WorkloadGenerator gen(SmallWorkload(120), eo.num_items, eo.num_user_sites,
                        Rng(37));
  const std::vector<WorkloadGenerator::Arrival> arrivals = gen.Generate();
  const std::size_t events_before = engine.simulator().PendingEvents();
  for (auto it = arrivals.rbegin(); it != arrivals.rend(); ++it) {
    if (it != arrivals.rbegin()) {
      ASSERT_LT(it->when, std::prev(it)->when);
    }
    ASSERT_TRUE(engine.AddTransaction(it->when, it->spec).ok());
  }
  EXPECT_EQ(engine.simulator().PendingEvents(), events_before + 120);
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 120u);
  EXPECT_EQ(commits.size(), 120u);
  for (const auto& [id, n] : commits) EXPECT_EQ(n, 1) << "txn " << id;
  EXPECT_TRUE(engine.CheckSerializability().serializable);
  EXPECT_TRUE(engine.ReplicasConsistent());
}

// Time-ordered batch arrivals wait in the engine's FIFO: only its front
// is a simulator event, so the queue and the event arena stay flat.
TEST(EngineTest, TimeOrderedBatchQueuesOneEvent) {
  const EngineOptions eo = SmallEngine(23);
  Engine engine(eo);
  WorkloadGenerator gen(SmallWorkload(200), eo.num_items, eo.num_user_sites,
                        Rng(41));
  const std::vector<WorkloadGenerator::Arrival> arrivals = gen.Generate();
  const std::size_t events_before = engine.simulator().PendingEvents();
  const std::size_t slots_before = engine.simulator().ArenaSlots();
  ASSERT_TRUE(engine.AddWorkload(arrivals).ok());
  EXPECT_EQ(engine.simulator().PendingEvents(), events_before + 1);
  EXPECT_LE(engine.simulator().ArenaSlots(), slots_before + 1);
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.offered, 200u);
  EXPECT_EQ(s.committed, 200u);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
}

TEST(EngineTest, AddWorkloadAdmitsAllOrNothing) {
  Engine engine(SmallEngine());
  std::vector<WorkloadGenerator::Arrival> arrivals(5);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].when = i * kMillisecond;
    arrivals[i].spec.id = i + 1;
    arrivals[i].spec.read_set = {static_cast<ItemId>(i)};
  }
  arrivals[2].spec.read_set = {10'000};  // out of range
  const std::size_t events_before = engine.simulator().PendingEvents();
  EXPECT_FALSE(engine.AddWorkload(arrivals).ok());
  EXPECT_EQ(engine.simulator().PendingEvents(), events_before);
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.offered, 0u);
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.committed, 0u);
}

// Batch arrivals are admitted in (time, call order) whether they join the
// FIFO or, being earlier than its tail, get events of their own.
TEST(EngineTest, BatchTiesAdmitInTimeThenCallOrder) {
  Engine engine(SmallEngine(13));
  std::vector<TxnId> admitted;
  engine.SetProtocolPolicy([&admitted](const TxnSpec& spec) {
    admitted.push_back(spec.id);
    return spec.protocol;
  });
  // (when in ms, id) in call order: in-order runs, out-of-order adds and
  // several arrivals at one microsecond.
  const std::vector<std::pair<SimTime, TxnId>> calls = {
      {10, 1}, {20, 2}, {20, 3},  {15, 4},  {20, 5},  {20, 6},
      {5, 7},  {30, 8}, {20, 9},  {30, 10}, {15, 11}, {30, 12}};
  auto spec_for = [](TxnId id) {
    TxnSpec spec;
    spec.id = id;
    spec.home = static_cast<SiteId>(id % 3);
    spec.read_set = {static_cast<ItemId>(id)};
    return spec;
  };
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine
                    .AddTransaction(calls[i].first * kMillisecond,
                                    spec_for(calls[i].second))
                    .ok());
  }
  std::vector<WorkloadGenerator::Arrival> rest;
  for (std::size_t i = 8; i < calls.size(); ++i) {
    rest.push_back({calls[i].first * kMillisecond, spec_for(calls[i].second)});
  }
  ASSERT_TRUE(engine.AddWorkload(rest).ok());
  std::vector<std::pair<SimTime, TxnId>> want = calls;
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<TxnId> want_ids;
  for (const auto& [when, id] : want) want_ids.push_back(id);
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, calls.size());
  EXPECT_EQ(admitted, want_ids);
}

struct BackendCase {
  BackendKind backend;
  Protocol protocol;
  const char* name;
};

class PerProtocolEngineTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(PerProtocolEngineTest, WorkloadCommitsAndSerializable) {
  const BackendCase& c = GetParam();
  EngineOptions eo = SmallEngine(11);
  eo.backend = c.backend;
  eo.pure_protocol = c.protocol;
  if (c.protocol != Protocol::kTwoPhaseLocking &&
      c.backend == BackendKind::kPure &&
      c.protocol == Protocol::kTimestampOrdering) {
    eo.detector = DetectorKind::kNone;  // pure T/O cannot deadlock
  }
  auto run = RunWorkload(eo, SmallWorkload(120), FixedProtocol(c.protocol));
  EXPECT_EQ(run.summary.committed, 120u);
  const auto report = run.engine->CheckSerializability();
  EXPECT_TRUE(report.serializable)
      << "cycle size: " << report.cycle.size();
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PerProtocolEngineTest,
    ::testing::Values(
        BackendCase{BackendKind::kPure, Protocol::kTwoPhaseLocking, "p2pl"},
        BackendCase{BackendKind::kPure, Protocol::kTimestampOrdering, "pto"},
        BackendCase{BackendKind::kPure, Protocol::kPrecedenceAgreement,
                    "ppa"},
        BackendCase{BackendKind::kUnified, Protocol::kTwoPhaseLocking,
                    "u2pl"},
        BackendCase{BackendKind::kUnified, Protocol::kTimestampOrdering,
                    "uto"},
        BackendCase{BackendKind::kUnified, Protocol::kPrecedenceAgreement,
                    "upa"}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

TEST(EngineTest, PureTwoPlAndPaMatchUnifiedUnderFixedPolicy) {
  // With every transaction on one protocol the unified queue manager is
  // that protocol, so `backend = pure` and a unified run with the same
  // fixed policy are one run. The pure backend also switches the issuer's
  // semi-lock path off, which 2PL and PA transactions never take.
  for (const Protocol p :
       {Protocol::kTwoPhaseLocking, Protocol::kPrecedenceAgreement}) {
    SCOPED_TRACE(ProtocolName(p));
    EngineOptions eo = SmallEngine(31);
    eo.num_items = 8;
    eo.network.jitter_mean = 2 * kMillisecond;
    eo.max_clock_skew = 80 * kMillisecond;
    WorkloadOptions wo = SmallWorkload(150);
    wo.arrival_rate_per_sec = 120;
    wo.size_min = 3;
    wo.size_max = 5;
    eo.backend = BackendKind::kPure;
    eo.pure_protocol = p;
    const RunSummary pure = RunWorkload(eo, wo, FixedProtocol(p)).summary;
    eo.backend = BackendKind::kUnified;
    const RunSummary unified = RunWorkload(eo, wo, FixedProtocol(p)).summary;
    EXPECT_EQ(pure.committed, 150u);
    EXPECT_EQ(pure.makespan, unified.makespan);
    EXPECT_EQ(pure.total_messages, unified.total_messages);
    EXPECT_EQ(pure.mean_system_time_ms, unified.mean_system_time_ms);
    EXPECT_EQ(pure.deadlock_victims, unified.deadlock_victims);
    EXPECT_EQ(pure.backoff_rounds, unified.backoff_rounds);
    // Contended enough to exercise each protocol's anomaly path.
    EXPECT_GT(p == Protocol::kTwoPhaseLocking ? pure.deadlock_victims
                                              : pure.backoff_rounds,
              0u);
  }
}

TEST(EngineTest, UnifiedMixedWorkloadSerializable) {
  EngineOptions eo = SmallEngine(13);
  auto run = RunWorkload(eo, SmallWorkload(150),
                         MixedProtocol(1, 1, 1, Rng(99)));
  EXPECT_EQ(run.summary.committed, 150u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
  // All three protocols actually ran.
  for (auto p : {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
                 Protocol::kPrecedenceAgreement}) {
    EXPECT_GT(run.engine->metrics().ForProtocol(p).committed, 0u)
        << ProtocolName(p);
  }
}

TEST(EngineTest, PaNeverRestarts) {
  EngineOptions eo = SmallEngine(17);
  eo.network.jitter_mean = 2 * kMillisecond;
  eo.max_clock_skew = 80 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(200);
  wo.arrival_rate_per_sec = 150;  // heavy load
  wo.size_min = 3;
  wo.size_max = 5;
  auto run = RunWorkload(eo, wo,
                         FixedProtocol(Protocol::kPrecedenceAgreement));
  EXPECT_EQ(run.summary.committed, 200u);
  EXPECT_EQ(run.summary.reject_restarts, 0u);   // Corollary 1
  EXPECT_EQ(run.summary.deadlock_victims, 0u);  // Corollary 1
  EXPECT_GT(run.summary.backoff_rounds, 0u);    // load high enough to back off
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, PureToRestartsButNeverDeadlocks) {
  EngineOptions eo = SmallEngine(19);
  eo.backend = BackendKind::kPure;
  eo.pure_protocol = Protocol::kTimestampOrdering;
  eo.detector = DetectorKind::kNone;
  eo.network.jitter_mean = 3 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(200);
  wo.arrival_rate_per_sec = 150;
  wo.read_fraction = 0.3;
  auto run = RunWorkload(eo, wo,
                         FixedProtocol(Protocol::kTimestampOrdering));
  EXPECT_EQ(run.summary.committed, 200u);
  EXPECT_GT(run.summary.reject_restarts, 0u);
  EXPECT_EQ(run.summary.deadlock_victims, 0u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, TwoPlDeadlocksDetectedAndResolved) {
  EngineOptions eo = SmallEngine(23);
  eo.num_items = 4;  // extreme contention to force deadlocks
  eo.network.jitter_mean = 3 * kMillisecond;
  eo.central_detector.interval = 20 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(100);
  wo.arrival_rate_per_sec = 120;
  wo.read_fraction = 0.0;  // write-write conflicts
  wo.size_min = 2;
  wo.size_max = 3;
  auto run =
      RunWorkload(eo, wo, FixedProtocol(Protocol::kTwoPhaseLocking));
  EXPECT_EQ(run.summary.committed, 100u);
  EXPECT_GT(run.summary.deadlock_victims, 0u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

// The Section 4.2 example: t1, t2 run T/O, t3 runs 2PL over items x, y, z.
// The unified enforcement (semi-locks) must keep every interleaving
// serializable; this replays the scenario across many seeds and timings.
// Seed 23 is the regression for the lingering-T/O deadlock
// (docs/architecture.md, "Deadlock detection").
class PaperExampleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaperExampleTest, Section42ExampleSerializable) {
  EngineOptions eo = SmallEngine(GetParam());
  eo.num_items = 3;
  eo.num_user_sites = 3;
  eo.num_data_sites = 3;
  eo.network.jitter_mean = 4 * kMillisecond;
  Engine engine(eo);
  const ItemId x = 0, y = 1, z = 2;
  TxnSpec t1;
  t1.id = 1;
  t1.home = 0;
  t1.protocol = Protocol::kTimestampOrdering;
  t1.read_set = {x};
  t1.write_set = {y};
  TxnSpec t2;
  t2.id = 2;
  t2.home = 1;
  t2.protocol = Protocol::kTimestampOrdering;
  t2.read_set = {y};
  t2.write_set = {z};
  TxnSpec t3;
  t3.id = 3;
  t3.home = 2;
  t3.protocol = Protocol::kTwoPhaseLocking;
  t3.read_set = {z};
  t3.write_set = {x};
  // Stagger arrivals inside one network round-trip so requests interleave.
  ASSERT_TRUE(engine.AddTransaction(0, t1).ok());
  ASSERT_TRUE(engine.AddTransaction(GetParam() % 7 * kMillisecond, t2).ok());
  ASSERT_TRUE(engine.AddTransaction(GetParam() % 11 * kMillisecond, t3).ok());
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 3u);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperExampleTest,
                         ::testing::Range<std::uint64_t>(1, 25),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(EngineTest, BankingTransfersPreserveTotal) {
  EngineOptions eo = SmallEngine(31);
  eo.num_items = 8;
  Engine engine(eo);
  const std::uint64_t kInitial = 1000;
  // Funding transaction initializes all accounts.
  TxnSpec fund;
  fund.id = 1;
  fund.home = 0;
  fund.protocol = Protocol::kTwoPhaseLocking;
  for (ItemId a = 0; a < 8; ++a) fund.write_set.push_back(a);
  // The closure's captures must not outlive its transaction's commit.
  const auto token = std::make_shared<int>(0);
  engine.SetCompute(fund.id, [&, token](const auto&) {
    std::vector<std::pair<ItemId, std::uint64_t>> w;
    for (ItemId a = 0; a < 8; ++a) w.emplace_back(a, kInitial);
    return w;
  });
  ASSERT_TRUE(engine.AddTransaction(0, fund).ok());
  // Transfers with mixed protocols.
  Rng rng(7);
  const Protocol protos[] = {Protocol::kTwoPhaseLocking,
                             Protocol::kTimestampOrdering,
                             Protocol::kPrecedenceAgreement};
  for (TxnId id = 2; id <= 60; ++id) {
    const ItemId a = static_cast<ItemId>(rng.UniformInt(8));
    ItemId b = static_cast<ItemId>(rng.UniformInt(8));
    while (b == a) b = static_cast<ItemId>(rng.UniformInt(8));
    TxnSpec t;
    t.id = id;
    t.home = static_cast<SiteId>(rng.UniformInt(3));
    t.protocol = protos[rng.UniformInt(3)];
    t.write_set = {a, b};
    t.compute_time = kMillisecond;
    engine.SetCompute(id, [a, b](const auto& reads) {
      std::uint64_t va = reads.at(a), vb = reads.at(b);
      const std::uint64_t amount = 10;
      std::vector<std::pair<ItemId, std::uint64_t>> w;
      if (va >= amount) {
        w.emplace_back(a, va - amount);
        w.emplace_back(b, vb + amount);
      } else {
        w.emplace_back(a, va);
        w.emplace_back(b, vb);
      }
      return w;
    });
    ASSERT_TRUE(
        engine.AddTransaction(500 * kMillisecond +
                                  rng.UniformInt(2 * kSecond),
                              t)
            .ok());
  }
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 60u);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
  std::uint64_t total = 0;
  for (ItemId a = 0; a < 8; ++a) total += engine.ReadReplicas(a)[0];
  EXPECT_EQ(total, 8 * kInitial);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EngineTest, ReplicatedWorkloadKeepsReplicasConsistent) {
  EngineOptions eo = SmallEngine(37);
  eo.replication = 3;
  eo.num_data_sites = 3;
  auto run = RunWorkload(eo, SmallWorkload(100),
                         MixedProtocol(1, 1, 1, Rng(5)));
  EXPECT_EQ(run.summary.committed, 100u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

TEST(EngineTest, LockEverythingAblationStillSerializable) {
  EngineOptions eo = SmallEngine(41);
  eo.semi_locks = false;
  auto run = RunWorkload(eo, SmallWorkload(120),
                         MixedProtocol(1, 1, 1, Rng(6)));
  EXPECT_EQ(run.summary.committed, 120u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, ReadOnlyWorkloadHasNoAnomalies) {
  // Reads never conflict: every protocol must run anomaly-free.
  for (Protocol p :
       {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
        Protocol::kPrecedenceAgreement}) {
    EngineOptions eo = SmallEngine(61);
    eo.network.jitter_mean = 2 * kMillisecond;
    WorkloadOptions wo = SmallWorkload(80);
    wo.read_fraction = 1.0;
    wo.arrival_rate_per_sec = 200;
    auto run = RunWorkload(eo, wo, FixedProtocol(p));
    EXPECT_EQ(run.summary.committed, 80u) << ProtocolName(p);
    EXPECT_EQ(run.summary.deadlock_victims, 0u) << ProtocolName(p);
    EXPECT_EQ(run.summary.reject_restarts, 0u) << ProtocolName(p);
    EXPECT_EQ(run.summary.backoff_rounds, 0u) << ProtocolName(p);
    EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  }
}

TEST(EngineTest, SingleSiteClusterWorks) {
  EngineOptions eo = SmallEngine(67);
  eo.num_user_sites = 1;
  eo.num_data_sites = 1;
  eo.num_items = 8;
  WorkloadOptions wo = SmallWorkload(60);
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(2)));
  EXPECT_EQ(run.summary.committed, 60u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, ZeroComputeTimeWorks) {
  EngineOptions eo = SmallEngine(71);
  WorkloadOptions wo = SmallWorkload(60);
  wo.compute_time = 0;
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(3)));
  EXPECT_EQ(run.summary.committed, 60u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, ZipfHotspotStaysSerializable) {
  EngineOptions eo = SmallEngine(73);
  eo.network.jitter_mean = 2 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(120);
  wo.zipf_theta = 1.2;  // heavy skew: a handful of hot items
  wo.arrival_rate_per_sec = 80;
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(4)));
  EXPECT_EQ(run.summary.committed, 120u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

TEST(EngineTest, TraceReplayReproducesRun) {
  // Record a workload, replay the parsed trace on a fresh engine with the
  // same options: results must be bit-identical.
  EngineOptions eo = SmallEngine(53);
  WorkloadOptions wo = SmallWorkload(60);
  WorkloadGenerator gen(wo, eo.num_items, eo.num_user_sites, Rng(3));
  auto arrivals = gen.Generate();
  // Mix the protocols deterministically into the specs themselves.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].spec.protocol = static_cast<Protocol>(i % kNumProtocols);
  }
  Engine direct(eo);
  ASSERT_TRUE(direct.AddWorkload(arrivals).ok());
  const RunSummary s1 = direct.Run();

  const std::string text = WorkloadTrace::Serialize(arrivals);
  auto parsed = WorkloadTrace::Parse(text);
  ASSERT_TRUE(parsed.ok());
  Engine replayed(eo);
  ASSERT_TRUE(replayed.AddWorkload(*parsed).ok());
  const RunSummary s2 = replayed.Run();

  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.total_messages, s2.total_messages);
  EXPECT_EQ(s1.deadlock_victims, s2.deadlock_victims);
  EXPECT_TRUE(replayed.CheckSerializability().serializable);
}

TEST(EngineTest, DebugDumpShowsState) {
  Engine engine(SmallEngine());
  TxnSpec t;
  t.id = 1;
  t.home = 0;
  t.write_set = {2};
  ASSERT_TRUE(engine.AddTransaction(0, t).ok());
  // Two later batch arrivals still wait for admission at the dump.
  for (TxnId id : {2, 3}) {
    TxnSpec later;
    later.id = id;
    later.home = 1;
    later.read_set = {static_cast<ItemId>(id + 10)};
    ASSERT_TRUE(engine.AddTransaction(id * kSecond, later).ok());
  }
  // Run just past the request arrival so a queue entry exists.
  engine.simulator().RunUntil(6 * kMillisecond);
  const std::string dump = engine.DebugDump();
  EXPECT_NE(dump.find("admitted=3"), std::string::npos);
  EXPECT_NE(dump.find("batch_waiting=2"), std::string::npos);
  EXPECT_NE(dump.find("txn=1"), std::string::npos);
  engine.Run();
  EXPECT_NE(engine.DebugDump().find("batch_waiting=0"), std::string::npos);
}

TEST(EngineTest, DeterministicAcrossIdenticalRuns) {
  auto run1 = RunWorkload(SmallEngine(43), SmallWorkload(80),
                          MixedProtocol(1, 1, 1, Rng(1)));
  auto run2 = RunWorkload(SmallEngine(43), SmallWorkload(80),
                          MixedProtocol(1, 1, 1, Rng(1)));
  EXPECT_EQ(run1.summary.makespan, run2.summary.makespan);
  EXPECT_EQ(run1.summary.total_messages, run2.summary.total_messages);
  EXPECT_EQ(run1.summary.mean_system_time_ms,
            run2.summary.mean_system_time_ms);
}

// Property sweep: many seeds, mixed protocols, moderate contention - every
// run must commit fully, be conflict serializable and keep replicas
// consistent (Theorem 2).
class SerializabilityPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializabilityPropertyTest, RandomMixAlwaysSerializable) {
  EngineOptions eo = SmallEngine(GetParam());
  eo.num_items = 12;  // high contention
  eo.network.jitter_mean = 2 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(80);
  wo.arrival_rate_per_sec = 100;
  wo.read_fraction = 0.4;
  auto run = RunWorkload(eo, wo,
                         MixedProtocol(1, 1, 1, Rng(GetParam() * 31)));
  EXPECT_EQ(run.summary.committed, 80u);
  const auto report = run.engine->CheckSerializability();
  EXPECT_TRUE(report.serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializabilityPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// Regression for a logging-order bug: under an all-T/O population with
// semi-locks, commit-time transforms reach different copies in different
// orders; reads must be implemented (logged) at grant, where their value is
// captured, or the conflict graph shows false cycles.
class SemiLockStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SemiLockStressTest, AllToHighContentionSerializable) {
  EngineOptions eo = SmallEngine(GetParam());
  eo.num_user_sites = 4;
  eo.num_data_sites = 4;
  eo.num_items = 30;
  eo.network.jitter_mean = 2 * kMillisecond;
  WorkloadOptions wo = SmallWorkload(200);
  wo.arrival_rate_per_sec = 120;
  wo.size_min = 4;
  wo.size_max = 4;
  wo.read_fraction = 0.6;
  wo.compute_time = 10 * kMillisecond;
  auto run = RunWorkload(eo, wo,
                         FixedProtocol(Protocol::kTimestampOrdering));
  EXPECT_EQ(run.summary.committed, 200u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiLockStressTest,
                         ::testing::Range<std::uint64_t>(40, 52));

// ---------------------------------------------------------------------------
// Open-system (streaming) admission
// ---------------------------------------------------------------------------

std::vector<Arrival> GeneratedArrivals(const EngineOptions& eo,
                                       std::uint64_t num_txns) {
  WorkloadOptions wo = SmallWorkload(num_txns);
  WorkloadGenerator gen(wo, eo.num_items, eo.num_user_sites,
                        Rng(eo.seed ^ 0x9e3779b9));
  return gen.Generate();
}

TEST(EngineStreamTest, StreamedRunMatchesBatchRun) {
  const EngineOptions eo = SmallEngine(17);
  const std::vector<Arrival> arrivals = GeneratedArrivals(eo, 120);

  Engine batch(eo);
  batch.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  ASSERT_TRUE(batch.AddWorkload(arrivals).ok());
  const RunSummary b = batch.Run();

  Engine streamed(eo);
  streamed.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  streamed.SetArrivalStream(MakeVectorStream(arrivals));
  const RunSummary s = streamed.Run();

  // No run controls: streaming admission is observationally identical to
  // batch pre-admission.
  EXPECT_EQ(s.committed, b.committed);
  EXPECT_EQ(s.makespan, b.makespan);
  EXPECT_EQ(s.total_messages, b.total_messages);
  EXPECT_EQ(s.mean_system_time_ms, b.mean_system_time_ms);
  EXPECT_TRUE(streamed.CheckSerializability().serializable);
}

TEST(EngineStreamTest, CommitTargetClosesAdmission) {
  EngineOptions eo = SmallEngine(18);
  eo.run.commit_target = 20;
  Engine engine(eo);
  engine.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  engine.SetArrivalStream(MakeVectorStream(GeneratedArrivals(eo, 200)));
  const RunSummary s = engine.Run();
  // Admission closes at the 20th commit; whatever was already in flight
  // drains, so the total can exceed the target only by the residual MPL.
  EXPECT_GE(s.committed, 20u);
  EXPECT_LT(s.committed, 60u);
  EXPECT_EQ(s.committed, s.admitted);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
}

TEST(EngineStreamTest, TimeHorizonStopsAdmission) {
  EngineOptions eo = SmallEngine(19);
  eo.run.time_horizon = 1 * kSecond;
  Engine engine(eo);
  engine.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  const std::vector<Arrival> arrivals = GeneratedArrivals(eo, 200);
  std::uint64_t in_horizon = 0;
  for (const Arrival& a : arrivals) in_horizon += a.when <= 1 * kSecond;
  ASSERT_GT(in_horizon, 0u);
  ASSERT_LT(in_horizon, 200u);
  engine.SetArrivalStream(MakeVectorStream(arrivals));
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.admitted, in_horizon);
  EXPECT_EQ(s.committed, in_horizon);
}

TEST(EngineStreamTest, MplCapSerializesAdmission) {
  // With cap 1 only one transaction is ever in flight: commits happen in
  // arrival (id) order and the makespan stretches past the uncapped run.
  // The arrival rate far exceeds the service rate, so the cap binds and
  // the admission gate queues nearly every arrival.
  EngineOptions eo = SmallEngine(20);
  eo.run.max_inflight = 1;
  WorkloadOptions wo = SmallWorkload(60);
  wo.arrival_rate_per_sec = 400;
  WorkloadGenerator gen(wo, eo.num_items, eo.num_user_sites,
                        Rng(eo.seed ^ 0x9e3779b9));
  const std::vector<Arrival> arrivals = gen.Generate();

  Engine uncapped(SmallEngine(20));
  uncapped.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  ASSERT_TRUE(uncapped.AddWorkload(arrivals).ok());
  const RunSummary u = uncapped.Run();

  TxnId last = 0;
  bool in_order = true;
  EngineCallbacks cb;
  cb.on_commit = [&](const TxnResult& r) {
    in_order = in_order && r.id > last;
    last = r.id;
  };
  Engine engine(eo, cb);
  engine.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  engine.SetArrivalStream(MakeVectorStream(arrivals));
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 60u);
  EXPECT_TRUE(in_order);
  EXPECT_GT(s.makespan, u.makespan);
  // Parked arrivals keep their stream arrival timestamps, so the time
  // spent waiting at the admission gate shows up in system time.
  EXPECT_GT(s.mean_system_time_ms, 5 * u.mean_system_time_ms);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
}

TEST(EngineStreamTest, GateTimersLeaveWithTheirEntries) {
  // Three arrivals at t=0 into one MPL slot and a one-entry gate: #1 is
  // admitted, #2 parks with a deadline event at 10 s, #3 evicts it
  // (drop_oldest, no retries) and parks with its own, and #1's commit
  // admits #3. Neither parked entry expires, so once both transactions
  // committed no event may remain: a deadline event must leave the queue
  // with its entry, whether the entry was shed or admitted.
  EngineOptions eo = SmallEngine(21);
  eo.detector = DetectorKind::kNone;
  eo.run.max_inflight = 1;
  eo.run.queue_limit = 1;
  eo.run.shed_policy = ShedPolicy::kDropOldest;
  std::vector<Arrival> arrivals(3);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    TxnSpec& t = arrivals[i].spec;
    t.id = i + 1;
    t.read_set = {static_cast<ItemId>(2 * i)};
    t.write_set = {static_cast<ItemId>(2 * i + 1)};
    t.compute_time = kMillisecond;
    t.deadline = 10 * kSecond;
  }
  Engine engine(eo);
  engine.SetProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking));
  engine.SetArrivalStream(MakeVectorStream(arrivals));
  Simulator& sim = engine.simulator();
  sim.RunUntil(kSecond);
  EXPECT_EQ(engine.metrics().shed(), 1u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPending);
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 2u);
  EXPECT_EQ(s.expired, 0u);
}

TEST(EngineStreamTest, EmptyStreamTerminates) {
  Engine engine(SmallEngine());
  engine.SetArrivalStream(MakeVectorStream({}));
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.committed, 0u);
}

TEST(EngineStreamTest, ScenarioOpenRunCommitsEverything) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\nuser_sites = 3\ndata_sites = 3\nseed = 9\n"
      "[run]\nmax_inflight = 4\nwindow_ms = 1000\n"
      "[class main]\ntxns = 150\nrate = 80\nsize = 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(spec->IsOpenSystem());
  ScenarioSpec::OpenWorkload ow = spec->Open();
  Engine engine(spec->engine);
  engine.SetProtocolPolicy(
      ForcedAwarePolicy(FixedProtocol(Protocol::kTwoPhaseLocking),
                        ow.forced));
  engine.SetArrivalStream(std::move(ow.stream));
  const RunSummary s = engine.Run();
  EXPECT_EQ(s.committed, 150u);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
  // The scenario's [run] window_ms switched the timeline recorder on.
  ASSERT_NE(engine.timeline(), nullptr);
  std::uint64_t windowed = 0;
  for (std::size_t i = 0; i < engine.timeline()->NumWindows(); ++i) {
    windowed += engine.timeline()->Window(i).committed;
  }
  EXPECT_EQ(windowed, 150u);
}

}  // namespace
}  // namespace unicc
