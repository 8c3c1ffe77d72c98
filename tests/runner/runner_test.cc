// Runner-facade tests: RunRequest validation surfaces Status errors
// instead of aborting, EngineBuilder validates before construction, the
// [run] shards scenario key parses and cross-validates, NegotiateJobs
// keeps jobs x shards within the machine, and every drained run is timed
// by phase and checked against its accounting identities.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "engine/builder.h"
#include "runner/runner.h"
#include "scenario/scenario.h"
#include "workload/stream.h"

namespace unicc {
namespace {

using runner::NegotiateJobs;
using runner::RunRequest;
using runner::RunSession;

constexpr char kSmallScenario[] = R"(
[engine]
user_sites = 2
data_sites = 2
items = 16
delay_ms = 5
seed = 9

[class main]
txns = 40
rate = 80
size = 2..3
)";

ScenarioSpec SmallSpec(const std::string& extra = "") {
  auto spec = ScenarioSpec::Parse(std::string(kSmallScenario) + extra);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

TEST(RunSessionTest, RejectsNullSpec) {
  auto session = RunSession::Create(RunRequest{});
  EXPECT_FALSE(session.ok());
}

TEST(RunSessionTest, RejectsForcedSetWithoutArrivals) {
  const ScenarioSpec spec = SmallSpec();
  RunRequest request;
  request.spec = &spec;
  request.forced = std::make_shared<std::unordered_set<TxnId>>();
  auto session = RunSession::Create(std::move(request));
  EXPECT_FALSE(session.ok());
}

TEST(RunSessionTest, RejectsShardCountExceedingSites) {
  const ScenarioSpec spec = SmallSpec();  // 2 user / 2 data sites
  RunRequest request;
  request.spec = &spec;
  request.shards = 4;
  auto session = RunSession::Create(std::move(request));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSessionTest, RejectsShardedOpenSystemRun) {
  const ScenarioSpec spec = SmallSpec("\n[run]\nmax_inflight = 8\n");
  ASSERT_TRUE(spec.IsOpenSystem());
  RunRequest request;
  request.spec = &spec;
  request.shards = 2;
  auto session = RunSession::Create(std::move(request));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSessionTest, RejectsArrivalsAndStreamTogether) {
  const ScenarioSpec spec = SmallSpec();
  const ScenarioSpec::Workload wl = spec.BuildWorkload();
  RunRequest request;
  request.spec = &spec;
  request.arrivals = &wl.arrivals;
  request.arrival_stream = MakeVectorStream(wl.arrivals);
  request.forced = wl.forced;
  auto session = RunSession::Create(std::move(request));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSessionTest, StreamReplayMatchesBatchReplay) {
  // The UCTC v2 replay path hands the runner an ArrivalStream instead of
  // a materialized vector; the classic engine admits from it streamingly
  // and must land on the exact same run.
  const ScenarioSpec spec = SmallSpec();
  const ScenarioSpec::Workload wl = spec.BuildWorkload();

  RunRequest batch;
  batch.spec = &spec;
  batch.arrivals = &wl.arrivals;
  batch.forced = wl.forced;
  auto sb = RunSession::Create(std::move(batch));
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();
  const auto rb = (*sb)->Run();

  RunRequest stream;
  stream.spec = &spec;
  stream.arrival_stream = MakeVectorStream(wl.arrivals);
  stream.forced = wl.forced;
  auto ss = RunSession::Create(std::move(stream));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  const auto rs = (*ss)->Run();

  EXPECT_EQ(rb.stats.committed, rs.stats.committed);
  EXPECT_EQ(rb.stats.admitted, rs.stats.admitted);
  EXPECT_EQ(rb.stats.makespan, rs.stats.makespan);
  EXPECT_EQ(rb.stats.total_messages, rs.stats.total_messages);
  EXPECT_EQ(rb.events_run, rs.events_run);
  EXPECT_TRUE(rs.stats.serializable);
}

TEST(RunSessionTest, ShardedRunDrainsTheReplayStream) {
  // Sharded runs are batch-only; a replay stream is drained up front and
  // partitioned like a materialized workload.
  const ScenarioSpec spec = SmallSpec();
  const ScenarioSpec::Workload wl = spec.BuildWorkload();
  RunRequest request;
  request.spec = &spec;
  request.shards = 2;
  request.arrival_stream = MakeVectorStream(wl.arrivals);
  request.forced = wl.forced;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto report = (*session)->Run();
  EXPECT_EQ(report.shards, 2u);
  EXPECT_EQ(report.stats.committed, 40u);
  EXPECT_TRUE(report.stats.serializable);
}

TEST(RunSessionTest, SeedOverrideChangesResults) {
  const ScenarioSpec spec = SmallSpec();
  RunRequest a;
  a.spec = &spec;
  auto sa = RunSession::Create(std::move(a));
  ASSERT_TRUE(sa.ok());
  const auto ra = (*sa)->Run();
  EXPECT_EQ(ra.stats.committed, 40u);
  EXPECT_TRUE(ra.stats.serializable);

  RunRequest b;
  b.spec = &spec;
  b.seed = 1234;
  auto sb = RunSession::Create(std::move(b));
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ((*sb)->spec().engine.seed, 1234u);
  const auto rb = (*sb)->Run();
  EXPECT_EQ(rb.stats.committed, 40u);
  EXPECT_NE(ra.stats.makespan, rb.stats.makespan)
      << "different seeds produced identical runs";
}

TEST(RunSessionTest, DrainedRunsPassAccountingAndReportPhases) {
  for (std::uint32_t shards : {1u, 2u}) {
    const ScenarioSpec spec = SmallSpec();
    RunRequest request;
    request.spec = &spec;
    request.shards = shards;
    request.metrics_window = 100 * kMillisecond;  // per-window identity too
    auto session = RunSession::Create(std::move(request));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const runner::RunReport report = (*session)->Run();
    EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.stats.committed, 40u);
    EXPECT_GE(report.setup_s, 0);
    EXPECT_GT(report.simulate_s, 0);
    EXPECT_GE(report.verify_s, 0);
  }
}

TEST(CheckAccountingTest, NamesEachBrokenIdentity) {
  const ScenarioSpec spec = SmallSpec();
  RunRequest request;
  request.spec = &spec;
  request.metrics_window = 100 * kMillisecond;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok());
  const runner::RunStats stats = (*session)->Run().stats;
  const TimelineRecorder* timeline = (*session)->timeline();
  ASSERT_NE(timeline, nullptr);
  ASSERT_TRUE(runner::CheckAccounting(stats, 0, timeline).ok());

  runner::RunStats lost = stats;
  ++lost.admitted;
  const Status admitted = runner::CheckAccounting(lost, 0, timeline);
  EXPECT_EQ(admitted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(admitted.message().find("committed + expired != admitted"),
            std::string::npos)
      << admitted.ToString();
  // Admitted work that expired balances the same books.
  EXPECT_TRUE(runner::CheckAccounting(lost, 1, nullptr).ok());

  runner::RunStats split = stats;
  ++split.committed_by_proto[1];
  const Status by_proto = runner::CheckAccounting(split, 0, timeline);
  EXPECT_EQ(by_proto.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(by_proto.message().find("per-protocol commits"),
            std::string::npos)
      << by_proto.ToString();

  const TimelineRecorder empty(100 * kMillisecond);
  const Status by_window = runner::CheckAccounting(stats, 0, &empty);
  EXPECT_EQ(by_window.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(by_window.message().find("per-window commits"), std::string::npos)
      << by_window.ToString();
  // Without a timeline the per-window identity is not checked.
  EXPECT_TRUE(runner::CheckAccounting(stats, 0, nullptr).ok());
}

TEST(ScenarioShardsKeyTest, ParsesIntoEngineOptions) {
  const ScenarioSpec spec = SmallSpec("\n[run]\nshards = 2\n");
  EXPECT_EQ(spec.engine.shards, 2u);
  EXPECT_FALSE(spec.IsOpenSystem()) << "shards must not imply open-system";
}

TEST(ScenarioShardsKeyTest, RejectsShardedOpenSystemScenario) {
  auto spec = ScenarioSpec::Parse(std::string(kSmallScenario) +
                                  "\n[run]\nshards = 2\ncommit_target = 10\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioShardsKeyTest, RejectsZeroShards) {
  auto spec = ScenarioSpec::Parse(std::string(kSmallScenario) +
                                  "\n[run]\nshards = 0\n");
  EXPECT_FALSE(spec.ok());
}

TEST(EngineBuilderTest, ReturnsStatusOnInvalidOptions) {
  EngineOptions options;
  options.num_user_sites = 0;
  auto built = EngineBuilder(options).Build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, BuildsRunnableEngine) {
  EngineOptions options;
  options.num_user_sites = 2;
  options.num_data_sites = 2;
  options.num_items = 8;
  options.seed = 3;
  auto built = EngineBuilder(options)
                   .WithProtocolPolicy(
                       FixedProtocol(Protocol::kTwoPhaseLocking))
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine& engine = **built;
  TxnSpec txn;
  txn.id = 1;
  txn.home = 0;
  txn.protocol = Protocol::kTwoPhaseLocking;
  txn.write_set.push_back(0);
  ASSERT_TRUE(engine.AddTransaction(0, txn).ok());
  const RunSummary summary = engine.Run();
  EXPECT_EQ(summary.committed, 1u);
}

TEST(NegotiateJobsTest, ProductNeverOversubscribes) {
  // Plenty of cores: the request passes through.
  EXPECT_EQ(NegotiateJobs(8, 1, 16), 8u);
  // 4-shard cells on 16 cores: at most 4 concurrent cells.
  EXPECT_EQ(NegotiateJobs(8, 4, 16), 4u);
  // More shards than cores: serialize the outer pool, never zero.
  EXPECT_EQ(NegotiateJobs(8, 4, 2), 1u);
  EXPECT_EQ(NegotiateJobs(1, 64, 4), 1u);
  // Degenerate inputs clamp instead of dividing by zero.
  EXPECT_EQ(NegotiateJobs(0, 0, 0), 1u);
  // The cap never raises the request.
  EXPECT_EQ(NegotiateJobs(2, 1, 64), 2u);
}

}  // namespace
}  // namespace unicc
