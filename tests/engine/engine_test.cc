#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "engine/builder.h"
#include "scenario/scenario.h"
#include "workload/stream.h"
#include "workload/trace.h"

namespace unicc {
namespace {

using test::DrawClass;
using test::MakeVectorStream;
using test::RunWorkload;
using test::SmallEngine;
using test::SmallWorkload;

TEST(EngineTest, RejectsInvalidTransactions) {
  auto engine = EngineBuilder(SmallEngine()).Build().value();
  TxnSpec bad;  // empty access set
  bad.id = 1;
  EXPECT_FALSE(engine->AddTransaction(0, bad).ok());
  TxnSpec out_of_range;
  out_of_range.id = 2;
  out_of_range.read_set = {10'000};
  EXPECT_FALSE(engine->AddTransaction(0, out_of_range).ok());
  TxnSpec bad_home;
  bad_home.id = 3;
  bad_home.read_set = {1};
  bad_home.home = 99;
  EXPECT_FALSE(engine->AddTransaction(0, bad_home).ok());
}

TEST(EngineTest, EmptyWorkloadTerminates) {
  // The periodic deadlock-detector tick must not keep an idle run alive.
  auto engine = EngineBuilder(SmallEngine()).Build().value();
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.committed, 0u);
}

TEST(EngineTest, SingleTransactionCommits) {
  auto engine = EngineBuilder(SmallEngine()).Build().value();
  TxnSpec t;
  t.id = 1;
  t.home = 0;
  t.read_set = {1};
  t.write_set = {2};
  t.compute_time = kMillisecond;
  ASSERT_TRUE(engine->AddTransaction(0, t).ok());
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_GT(s.mean_system_time_ms, 0);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
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
  auto engine = EngineBuilder(eo)
                    .WithCallbacks(callbacks)
                    .WithProtocolPolicy(MixedProtocol(1, 1, 1, Rng(31)))
                    .Build()
                    .value();
  const std::vector<Arrival> arrivals =
      DrawClass(SmallWorkload(120), eo, Rng(37));
  const std::size_t events_before = engine->simulator().PendingEvents();
  for (auto it = arrivals.rbegin(); it != arrivals.rend(); ++it) {
    if (it != arrivals.rbegin()) {
      ASSERT_LT(it->when, std::prev(it)->when);
    }
    ASSERT_TRUE(engine->AddTransaction(it->when, it->spec).ok());
  }
  EXPECT_EQ(engine->simulator().PendingEvents(), events_before + 120);
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 120u);
  EXPECT_EQ(commits.size(), 120u);
  for (const auto& [id, n] : commits) EXPECT_EQ(n, 1) << "txn " << id;
  EXPECT_TRUE(engine->CheckSerializability().serializable);
  EXPECT_TRUE(engine->ReplicasConsistent());
}

// Time-ordered batch arrivals wait in the engine's FIFO: only its front
// is a simulator event, so the queue and the event arena stay flat.
TEST(EngineTest, TimeOrderedBatchQueuesOneEvent) {
  const EngineOptions eo = SmallEngine(23);
  auto engine = EngineBuilder(eo).Build().value();
  const std::vector<Arrival> arrivals =
      DrawClass(SmallWorkload(200), eo, Rng(41));
  const std::size_t events_before = engine->simulator().PendingEvents();
  const std::size_t slots_before = engine->simulator().ArenaSlots();
  ASSERT_TRUE(engine->AddWorkload(arrivals).ok());
  EXPECT_EQ(engine->simulator().PendingEvents(), events_before + 1);
  EXPECT_LE(engine->simulator().ArenaSlots(), slots_before + 1);
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.offered, 200u);
  EXPECT_EQ(s.committed, 200u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
}

TEST(EngineTest, AddWorkloadAdmitsAllOrNothing) {
  auto engine = EngineBuilder(SmallEngine()).Build().value();
  std::vector<Arrival> arrivals(5);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].when = i * kMillisecond;
    arrivals[i].spec.id = i + 1;
    arrivals[i].spec.read_set = {static_cast<ItemId>(i)};
  }
  arrivals[2].spec.read_set = {10'000};  // out of range
  const std::size_t events_before = engine->simulator().PendingEvents();
  EXPECT_FALSE(engine->AddWorkload(arrivals).ok());
  EXPECT_EQ(engine->simulator().PendingEvents(), events_before);
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.offered, 0u);
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.committed, 0u);
}

// Batch arrivals are admitted in (time, call order) whether they join the
// FIFO or, being earlier than its tail, get events of their own.
TEST(EngineTest, BatchTiesAdmitInTimeThenCallOrder) {
  std::vector<TxnId> admitted;
  auto engine = EngineBuilder(SmallEngine(13))
                    .WithProtocolPolicy([&admitted](const TxnSpec& spec) {
                      admitted.push_back(spec.id);
                      return spec.protocol;
                    })
                    .Build()
                    .value();
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
                    ->AddTransaction(calls[i].first * kMillisecond,
                                     spec_for(calls[i].second))
                    .ok());
  }
  std::vector<Arrival> rest;
  for (std::size_t i = 8; i < calls.size(); ++i) {
    rest.push_back({calls[i].first * kMillisecond, spec_for(calls[i].second)});
  }
  ASSERT_TRUE(engine->AddWorkload(rest).ok());
  std::vector<std::pair<SimTime, TxnId>> want = calls;
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  std::vector<TxnId> want_ids;
  for (const auto& [when, id] : want) want_ids.push_back(id);
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, calls.size());
  EXPECT_EQ(admitted, want_ids);
}

// The batch FIFO keeps a spec as a record plus items in a shared pool and
// rebuilds it at admission; out-of-order arrivals keep their own copy.
// Either way the policy must see every spec exactly as it was added, with
// empty read or write sets and 40-item scans among them.
TEST(EngineTest, BatchSpecsReachThePolicyIntact) {
  EngineOptions eo = SmallEngine(17);
  eo.num_items = 200;
  std::map<TxnId, TxnSpec> seen;
  auto engine =
      EngineBuilder(eo)
          .WithProtocolPolicy([&seen](const TxnSpec& spec) {
            EXPECT_TRUE(seen.emplace(spec.id, spec).second)
                << "txn " << spec.id;
            return spec.protocol;
          })
          .Build()
          .value();
  Rng rng(43);
  std::vector<Arrival> added;
  for (TxnId id = 1; id <= 80; ++id) {
    Arrival a;
    // Every fifth arrival is earlier than the FIFO's tail.
    a.when = (id * 10 - (id % 5 == 0 ? 35 : 0)) * kMillisecond;
    TxnSpec& spec = a.spec;
    spec.id = id;
    spec.home = static_cast<SiteId>(id % eo.num_user_sites);
    spec.protocol = static_cast<Protocol>(id % kNumProtocols);
    spec.compute_time = (id % 4) * kMillisecond;
    spec.backoff_interval = id % 3 == 0 ? 0 : 7 * id;
    spec.priority = static_cast<std::uint32_t>(3 * id);
    spec.deadline = id % 2 == 0 ? 0 : 100 * kSecond + id;
    // Distinct items in random order, split by shape.
    std::vector<ItemId> items(eo.num_items);
    std::iota(items.begin(), items.end(), ItemId{0});
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[rng.UniformInt(i)]);
    }
    switch (id % 4) {
      case 0: {  // a 40-item scan, no writes
        const auto first = static_cast<ItemId>(rng.UniformInt(160));
        for (ItemId k = 0; k < 40; ++k) spec.read_set.push_back(first + k);
        break;
      }
      case 1:  // writes only
        spec.write_set.assign(items.begin(), items.begin() + 1 + id % 3);
        break;
      case 2:  // reads only
        spec.read_set.assign(items.begin(), items.begin() + 1 + id % 5);
        break;
      default:  // both
        spec.read_set.assign(items.begin(), items.begin() + 3);
        spec.write_set.assign(items.begin() + 3, items.begin() + 5);
        break;
    }
    added.push_back(a);
  }
  // The first half one by one, the second half as one workload.
  for (std::size_t i = 0; i < added.size() / 2; ++i) {
    ASSERT_TRUE(engine->AddTransaction(added[i].when, added[i].spec).ok());
  }
  ASSERT_TRUE(engine
                  ->AddWorkload(std::vector<Arrival>(
                      added.begin() + added.size() / 2, added.end()))
                  .ok());
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, added.size());
  ASSERT_EQ(seen.size(), added.size());
  for (const Arrival& a : added) {
    const TxnSpec& want = a.spec;
    const TxnSpec& got = seen.at(want.id);
    EXPECT_EQ(got.home, want.home) << "txn " << want.id;
    EXPECT_EQ(got.protocol, want.protocol) << "txn " << want.id;
    EXPECT_EQ(got.read_set, want.read_set) << "txn " << want.id;
    EXPECT_EQ(got.write_set, want.write_set) << "txn " << want.id;
    EXPECT_EQ(got.compute_time, want.compute_time) << "txn " << want.id;
    EXPECT_EQ(got.backoff_interval, want.backoff_interval)
        << "txn " << want.id;
    EXPECT_EQ(got.priority, want.priority) << "txn " << want.id;
    EXPECT_EQ(got.deadline, want.deadline) << "txn " << want.id;
  }
  EXPECT_TRUE(engine->CheckSerializability().serializable);
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
  if (c.backend == BackendKind::kBasicTo) {
    eo.detector = DetectorKind::kNone;  // Basic T/O cannot deadlock
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
        BackendCase{BackendKind::kBasicTo, Protocol::kTimestampOrdering,
                    "basic_to"},
        BackendCase{BackendKind::kUnified, Protocol::kTwoPhaseLocking,
                    "u2pl"},
        BackendCase{BackendKind::kUnified, Protocol::kTimestampOrdering,
                    "uto"},
        BackendCase{BackendKind::kUnified, Protocol::kPrecedenceAgreement,
                    "upa"}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

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
  ScenarioClass wo = SmallWorkload(200);
  wo.rate = 150;  // heavy load
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
  eo.backend = BackendKind::kBasicTo;
  eo.detector = DetectorKind::kNone;
  eo.network.jitter_mean = 3 * kMillisecond;
  ScenarioClass wo = SmallWorkload(200);
  wo.rate = 150;
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
  ScenarioClass wo = SmallWorkload(100);
  wo.rate = 120;
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
  auto engine = EngineBuilder(eo).Build().value();
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
  ASSERT_TRUE(engine->AddTransaction(0, t1).ok());
  ASSERT_TRUE(engine->AddTransaction(GetParam() % 7 * kMillisecond, t2).ok());
  ASSERT_TRUE(engine->AddTransaction(GetParam() % 11 * kMillisecond, t3).ok());
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 3u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperExampleTest,
                         ::testing::Range<std::uint64_t>(1, 25),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(EngineTest, BankingTransfersPreserveTotal) {
  EngineOptions eo = SmallEngine(31);
  eo.num_items = 8;
  auto engine = EngineBuilder(eo).Build().value();
  const std::uint64_t kInitial = 1000;
  // Funding transaction initializes all accounts.
  TxnSpec fund;
  fund.id = 1;
  fund.home = 0;
  fund.protocol = Protocol::kTwoPhaseLocking;
  for (ItemId a = 0; a < 8; ++a) fund.write_set.push_back(a);
  // The closure's captures must not outlive its transaction's commit.
  auto token = std::make_shared<int>(0);
  auto open_accounts = [&, token](const auto&) {
    std::vector<std::pair<ItemId, std::uint64_t>> w;
    for (ItemId a = 0; a < 8; ++a) w.emplace_back(a, kInitial);
    return w;
  };
  ASSERT_TRUE(
      engine->AddTransaction(0, fund, std::move(open_accounts)).ok());
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
    const ComputeFn transfer = [a, b](const auto& reads) {
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
    };
    ASSERT_TRUE(engine
                    ->AddTransaction(
                        500 * kMillisecond + rng.UniformInt(2 * kSecond), t,
                        transfer)
                    .ok());
  }
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 60u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
  std::uint64_t total = 0;
  for (ItemId a = 0; a < 8; ++a) total += engine->ReadReplicas(a)[0];
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
    ScenarioClass wo = SmallWorkload(80);
    wo.read_fraction = 1.0;
    wo.rate = 200;
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
  ScenarioClass wo = SmallWorkload(60);
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(2)));
  EXPECT_EQ(run.summary.committed, 60u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, ZeroComputeTimeWorks) {
  EngineOptions eo = SmallEngine(71);
  ScenarioClass wo = SmallWorkload(60);
  wo.compute_time = 0;
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(3)));
  EXPECT_EQ(run.summary.committed, 60u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
}

TEST(EngineTest, ZipfHotspotStaysSerializable) {
  EngineOptions eo = SmallEngine(73);
  eo.network.jitter_mean = 2 * kMillisecond;
  ScenarioClass wo = SmallWorkload(120);
  wo.theta = 1.2;  // heavy skew: a handful of hot items
  wo.rate = 80;
  auto run = RunWorkload(eo, wo, MixedProtocol(1, 1, 1, Rng(4)));
  EXPECT_EQ(run.summary.committed, 120u);
  EXPECT_TRUE(run.engine->CheckSerializability().serializable);
  EXPECT_TRUE(run.engine->ReplicasConsistent());
}

TEST(EngineTest, TraceReplayReproducesRun) {
  // Record a workload, replay the parsed trace on a fresh engine with the
  // same options: results must be bit-identical.
  EngineOptions eo = SmallEngine(53);
  std::vector<Arrival> arrivals = DrawClass(SmallWorkload(60), eo, Rng(3));
  // Mix the protocols deterministically into the specs themselves.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].spec.protocol = static_cast<Protocol>(i % kNumProtocols);
  }
  auto direct = EngineBuilder(eo).Build().value();
  ASSERT_TRUE(direct->AddWorkload(arrivals).ok());
  const RunSummary s1 = direct->Run();

  std::stringstream text;
  auto writer = MakeLineWriter(&text, LineFormat::kText);
  for (const Arrival& a : arrivals) ASSERT_TRUE(writer->Append(a).ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = MakeTextTraceReader(&text);
  auto replayed = EngineBuilder(eo).Build().value();
  Arrival a;
  while (reader->Next(&a)) {
    ASSERT_TRUE(replayed->AddTransaction(a.when, a.spec).ok());
  }
  ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  const RunSummary s2 = replayed->Run();

  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.total_messages, s2.total_messages);
  EXPECT_EQ(s1.deadlock_victims, s2.deadlock_victims);
  EXPECT_TRUE(replayed->CheckSerializability().serializable);
}

TEST(EngineTest, DebugDumpShowsState) {
  auto engine = EngineBuilder(SmallEngine()).Build().value();
  TxnSpec t;
  t.id = 1;
  t.home = 0;
  t.write_set = {2};
  ASSERT_TRUE(engine->AddTransaction(0, t).ok());
  // Two later batch arrivals still wait for admission at the dump.
  for (TxnId id : {2, 3}) {
    TxnSpec later;
    later.id = id;
    later.home = 1;
    later.read_set = {static_cast<ItemId>(id + 10)};
    ASSERT_TRUE(engine->AddTransaction(id * kSecond, later).ok());
  }
  // Run just past the request arrival so a queue entry exists.
  engine->simulator().RunUntil(6 * kMillisecond);
  const std::string dump = engine->DebugDump();
  EXPECT_NE(dump.find("admitted=3"), std::string::npos);
  EXPECT_NE(dump.find("batch_waiting=2"), std::string::npos);
  EXPECT_NE(dump.find("txn=1"), std::string::npos);
  engine->Run();
  EXPECT_NE(engine->DebugDump().find("batch_waiting=0"), std::string::npos);
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
  ScenarioClass wo = SmallWorkload(80);
  wo.rate = 100;
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
  ScenarioClass wo = SmallWorkload(200);
  wo.rate = 120;
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
  return DrawClass(SmallWorkload(num_txns), eo, Rng(eo.seed ^ 0x9e3779b9));
}

TEST(EngineStreamTest, StreamedRunMatchesBatchRun) {
  const EngineOptions eo = SmallEngine(17);
  const std::vector<Arrival> arrivals = GeneratedArrivals(eo, 120);

  auto batch =
      EngineBuilder(eo)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .Build()
          .value();
  ASSERT_TRUE(batch->AddWorkload(arrivals).ok());
  const RunSummary b = batch->Run();

  auto streamed =
      EngineBuilder(eo)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .WithArrivalStream(MakeVectorStream(arrivals))
          .Build()
          .value();
  const RunSummary s = streamed->Run();

  // No run controls: streaming admission is observationally identical to
  // batch pre-admission.
  EXPECT_EQ(s.committed, b.committed);
  EXPECT_EQ(s.makespan, b.makespan);
  EXPECT_EQ(s.total_messages, b.total_messages);
  EXPECT_EQ(s.mean_system_time_ms, b.mean_system_time_ms);
  EXPECT_TRUE(streamed->CheckSerializability().serializable);
}

TEST(EngineStreamTest, CommitTargetClosesAdmission) {
  EngineOptions eo = SmallEngine(18);
  eo.run.commit_target = 20;
  auto engine =
      EngineBuilder(eo)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .WithArrivalStream(MakeVectorStream(GeneratedArrivals(eo, 200)))
          .Build()
          .value();
  const RunSummary s = engine->Run();
  // Admission closes at the 20th commit; whatever was already in flight
  // drains, so the total can exceed the target only by the residual MPL.
  EXPECT_GE(s.committed, 20u);
  EXPECT_LT(s.committed, 60u);
  EXPECT_EQ(s.committed, s.admitted);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
}

TEST(EngineStreamTest, TimeHorizonStopsAdmission) {
  EngineOptions eo = SmallEngine(19);
  eo.run.time_horizon = 1 * kSecond;
  const std::vector<Arrival> arrivals = GeneratedArrivals(eo, 200);
  std::uint64_t in_horizon = 0;
  for (const Arrival& a : arrivals) in_horizon += a.when <= 1 * kSecond;
  ASSERT_GT(in_horizon, 0u);
  ASSERT_LT(in_horizon, 200u);
  auto engine =
      EngineBuilder(eo)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .WithArrivalStream(MakeVectorStream(arrivals))
          .Build()
          .value();
  const RunSummary s = engine->Run();
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
  ScenarioClass wo = SmallWorkload(60);
  wo.rate = 400;
  const std::vector<Arrival> arrivals =
      DrawClass(wo, eo, Rng(eo.seed ^ 0x9e3779b9));

  auto uncapped =
      EngineBuilder(SmallEngine(20))
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .Build()
          .value();
  ASSERT_TRUE(uncapped->AddWorkload(arrivals).ok());
  const RunSummary u = uncapped->Run();

  TxnId last = 0;
  bool in_order = true;
  EngineCallbacks cb;
  cb.on_commit = [&](const TxnResult& r) {
    in_order = in_order && r.id > last;
    last = r.id;
  };
  auto engine =
      EngineBuilder(eo)
          .WithCallbacks(cb)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .WithArrivalStream(MakeVectorStream(arrivals))
          .Build()
          .value();
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 60u);
  EXPECT_TRUE(in_order);
  EXPECT_GT(s.makespan, u.makespan);
  // Parked arrivals keep their stream arrival timestamps, so the time
  // spent waiting at the admission gate shows up in system time.
  EXPECT_GT(s.mean_system_time_ms, 5 * u.mean_system_time_ms);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
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
  auto engine =
      EngineBuilder(eo)
          .WithProtocolPolicy(FixedProtocol(Protocol::kTwoPhaseLocking))
          .WithArrivalStream(MakeVectorStream(arrivals))
          .Build()
          .value();
  Simulator& sim = engine->simulator();
  sim.RunUntil(kSecond);
  EXPECT_EQ(engine->metrics().shed(), 1u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPending);
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 2u);
  EXPECT_EQ(s.expired, 0u);
}

TEST(EngineStreamTest, EmptyStreamTerminates) {
  auto engine = EngineBuilder(SmallEngine())
                    .WithArrivalStream(MakeVectorStream({}))
                    .Build()
                    .value();
  const RunSummary s = engine->Run();
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
  auto engine =
      EngineBuilder(spec->engine)
          .WithProtocolPolicy(ForcedAwarePolicy(
              FixedProtocol(Protocol::kTwoPhaseLocking), ow.forced))
          .WithArrivalStream(std::move(ow.stream))
          .Build()
          .value();
  const RunSummary s = engine->Run();
  EXPECT_EQ(s.committed, 150u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
  // The scenario's [run] window_ms switched the timeline recorder on.
  ASSERT_NE(engine->timeline(), nullptr);
  std::uint64_t windowed = 0;
  for (std::size_t i = 0; i < engine->timeline()->NumWindows(); ++i) {
    windowed += engine->timeline()->Window(i).committed;
  }
  EXPECT_EQ(windowed, 150u);
}

}  // namespace
}  // namespace unicc
