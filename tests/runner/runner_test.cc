// Runner-facade tests: RunRequest validation surfaces Status errors
// instead of aborting, EngineBuilder validates before construction, and
// every drained run is timed by phase and checked against its accounting
// identities, the open-system offered-arrival identity and the
// serializability checker's own books included.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "engine/builder.h"
#include "runner/runner.h"
#include "scenario/scenario.h"
#include "workload/stream.h"
#include "workload/trace.h"

#ifndef UNICC_SCENARIOS_DIR
#error "UNICC_SCENARIOS_DIR must point at the shipped scenarios/ directory"
#endif

namespace unicc {
namespace {

using runner::RunRequest;
using runner::RunSession;
using test::MakeVectorStream;

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

TEST(RunSessionTest, RejectsForcedSetWithoutStream) {
  const ScenarioSpec spec = SmallSpec();
  RunRequest request;
  request.spec = &spec;
  request.forced = std::make_shared<std::unordered_set<TxnId>>();
  auto session = RunSession::Create(std::move(request));
  EXPECT_FALSE(session.ok());
}

TEST(RunSessionTest, RejectsBasicToBackendWithMixPolicy) {
  // A scenario file cannot express this combination, but a spec assembled
  // in code (unicc_sim's flags) can; it used to abort mid-run instead.
  ScenarioSpec spec = SmallSpec();
  spec.engine.backend = BackendKind::kBasicTo;
  spec.policy.kind = ScenarioPolicy::Kind::kMix;
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunSessionTest, OpenStreamReplayMatchesLiveRun) {
  // An open system admits a replayed workload through its [run] controls,
  // as its live run admits the scenario stream: under a two-transaction
  // MPL cap both runs park and admit the same arrivals at the same times.
  const ScenarioSpec spec = SmallSpec("[run]\nmax_inflight = 2\n");
  ASSERT_TRUE(spec.IsOpenSystem());

  RunRequest live;
  live.spec = &spec;
  auto sl = RunSession::Create(std::move(live));
  ASSERT_TRUE(sl.ok()) << sl.status().ToString();
  const auto rl = (*sl)->Run();

  const ScenarioSpec::Workload wl = spec.BuildWorkload();
  RunRequest stream;
  stream.spec = &spec;
  stream.arrival_stream = MakeVectorStream(wl.arrivals);
  stream.forced = wl.forced;
  auto ss = RunSession::Create(std::move(stream));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  const auto rs = (*ss)->Run();

  EXPECT_EQ(rl.stats.committed, 40u);
  EXPECT_EQ(rl.stats.committed, rs.stats.committed);
  EXPECT_EQ(rl.stats.mean_s_ms, rs.stats.mean_s_ms);
  EXPECT_EQ(rl.stats.makespan, rs.stats.makespan);
  EXPECT_EQ(rl.stats.total_messages, rs.stats.total_messages);
  EXPECT_EQ(rl.events_run, rs.events_run);
  EXPECT_TRUE(rs.stats.serializable);
}

TEST(RunSessionTest, ClosedStreamReplayMatchesLiveRun) {
  // bursty.ini's flash crowds put many arrivals and protocol events at
  // equal timestamps, so any change in tie order shows in its results. A
  // closed system admits a streamed replay through the batch path, as
  // its live run does; streamed, each arrival would draw its sequence
  // number when pulled instead of when queued, and ties would differ.
  auto loaded = ScenarioSpec::LoadFile(UNICC_SCENARIOS_DIR "/bursty.ini");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ScenarioSpec spec = std::move(*loaded);
  ASSERT_FALSE(spec.IsOpenSystem());

  RunRequest live;
  live.spec = &spec;
  auto sl = RunSession::Create(std::move(live));
  ASSERT_TRUE(sl.ok()) << sl.status().ToString();
  const auto rl = (*sl)->Run();

  const ScenarioSpec::Workload wl = spec.BuildWorkload();
  RunRequest stream;
  stream.spec = &spec;
  stream.arrival_stream = MakeVectorStream(wl.arrivals);
  stream.forced = wl.forced;
  auto ss = RunSession::Create(std::move(stream));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  const auto rs = (*ss)->Run();

  EXPECT_EQ(rl.stats.committed, rs.stats.committed);
  EXPECT_EQ(rl.stats.mean_s_ms, rs.stats.mean_s_ms);
  EXPECT_EQ(rl.stats.p95_s_ms, rs.stats.p95_s_ms);
  EXPECT_EQ(rl.stats.makespan, rs.stats.makespan);
  EXPECT_EQ(rl.stats.total_messages, rs.stats.total_messages);
  EXPECT_EQ(rl.stats.reject_restarts, rs.stats.reject_restarts);
  EXPECT_EQ(rl.events_run, rs.events_run);
  EXPECT_TRUE(rs.stats.serializable);
}

TEST(RunSessionTest, AWorkloadThatFailsIsAnErrorNotAnAbort) {
  // A replayed workload may name a home site or an item the scenario's
  // cluster lacks, or end on bad input. The run reports it as its status:
  // a closed system runs nothing, an open one stops admitting there.
  for (const bool open : {false, true}) {
    const ScenarioSpec spec = SmallSpec(open ? "[run]\nmax_inflight = 2\n" : "");
    auto run = [&spec](std::unique_ptr<ArrivalStream> stream) {
      RunRequest request;
      request.spec = &spec;
      request.arrival_stream = std::move(stream);
      auto session = RunSession::Create(std::move(request));
      EXPECT_TRUE(session.ok()) << session.status().ToString();
      return (*session)->Run();
    };
    const std::vector<Arrival> arrivals = spec.BuildWorkload().arrivals;
    std::vector<Arrival> far_item = arrivals;
    far_item[5].spec.write_set.push_back(16);  // items = 16
    runner::RunReport r = run(MakeVectorStream(far_item));
    EXPECT_EQ(r.status, Status::InvalidArgument(
                            "txn 6: write_set item 16 is out of range (16 "
                            "items)"))
        << r.status.ToString();
    EXPECT_EQ(r.stats.committed, open ? 5u : 0u);

    std::vector<Arrival> far_home = arrivals;
    far_home[0].spec.home = 2;  // user_sites = 2
    r = run(MakeVectorStream(far_home));
    EXPECT_EQ(r.status, Status::InvalidArgument(
                            "txn 1: home 2 is not a user site (2 user sites)"))
        << r.status.ToString();

    std::istringstream text("txn 1 0 0 2pl 0 0 r 1 w 2\nnonsense\n");
    r = run(MakeTextTraceReader(&text));
    EXPECT_EQ(r.status,
              Status::InvalidArgument("trace line 2: malformed header"))
        << r.status.ToString();
    EXPECT_EQ(r.stats.committed, open ? 1u : 0u);
  }
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
  ScenarioSpec spec = SmallSpec();
  spec.engine.metrics_window = 100 * kMillisecond;  // per-window identity too
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const runner::RunReport report = (*session)->Run();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.stats.committed, 40u);
  EXPECT_EQ(report.stats.offered, 40u);
  EXPECT_GE(report.setup_s, 0);
  EXPECT_GT(report.simulate_s, 0);
  EXPECT_GE(report.verify_s, 0);
}

TEST(RunSessionTest, OverloadedOpenRunBalancesOfferedArrivals) {
  // 2000/s offered against an MPL of 4 with an 8-deep deadline gate: work
  // is shed, some of it retried, some of it expires, and the horizon cuts
  // the stream short. Every arrival offered inside the horizon must still
  // end exactly once.
  auto parsed = ScenarioSpec::Parse(R"(
[engine]
user_sites = 2
data_sites = 2
items = 16
delay_ms = 2
jitter_ms = 1
seed = 9

[class main]
txns = 600
rate = 2000
size = 2..3
compute_ms = 3
deadline_ms = 60

[run]
horizon_ms = 250
max_inflight = 4
queue_limit = 8
shed_policy = deadline
retry_limit = 1
retry_ms = 10
retry_max_ms = 40
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec spec = std::move(*parsed);
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const runner::RunReport report = (*session)->Run();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  const runner::RunStats& st = report.stats;
  EXPECT_GT(st.shed, 0u);
  EXPECT_GT(st.retried, 0u);
  EXPECT_GT(st.expired, 0u);
  EXPECT_LT(st.offered, spec.TotalTxns()) << "the horizon cut nothing";
  EXPECT_EQ(st.committed + st.expired + (st.shed - st.retried), st.offered);
}

TEST(CheckAccountingTest, NamesEachBrokenIdentity) {
  ScenarioSpec spec = SmallSpec();
  spec.engine.metrics_window = 100 * kMillisecond;
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok());
  const runner::RunStats stats = (*session)->Run().stats;
  const TimelineRecorder* timeline = (*session)->timeline();
  ASSERT_NE(timeline, nullptr);
  ASSERT_TRUE(runner::CheckAccounting(stats, 0, false, timeline).ok());

  runner::RunStats lost = stats;
  ++lost.admitted;
  const Status admitted = runner::CheckAccounting(lost, 0, false, timeline);
  EXPECT_EQ(admitted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(admitted.message().find("committed + expired != admitted"),
            std::string::npos)
      << admitted.ToString();
  // Admitted work that expired balances the same books.
  EXPECT_TRUE(runner::CheckAccounting(lost, 1, false, nullptr).ok());

  runner::RunStats dropped = stats;
  ++dropped.offered;
  const Status offered = runner::CheckAccounting(dropped, 0, false, timeline);
  EXPECT_EQ(offered.code(), StatusCode::kFailedPrecondition);
  const std::string want = "committed + expired + (shed - retried) != offered";
  EXPECT_NE(offered.message().find(want), std::string::npos)
      << offered.ToString();
  // Admission closed by commit_target drops parked work uncounted, so the
  // offered identity is not checked then.
  EXPECT_TRUE(runner::CheckAccounting(dropped, 0, true, timeline).ok());

  runner::RunStats split = stats;
  ++split.committed_by_proto[1];
  const Status by_proto = runner::CheckAccounting(split, 0, false, timeline);
  EXPECT_EQ(by_proto.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(by_proto.message().find("per-protocol commits"),
            std::string::npos)
      << by_proto.ToString();

  const TimelineRecorder empty(100 * kMillisecond);
  const Status by_window = runner::CheckAccounting(stats, 0, false, &empty);
  EXPECT_EQ(by_window.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(by_window.message().find("per-window commits"), std::string::npos)
      << by_window.ToString();
  // Without a timeline the per-window identity is not checked.
  EXPECT_TRUE(runner::CheckAccounting(stats, 0, false, nullptr).ok());
}

TEST(CheckAccountingTest, NamesEachSerializabilityCheckerLeak) {
  const ScenarioSpec spec = SmallSpec();
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  ASSERT_TRUE(session.ok());
  const runner::RunStats stats = (*session)->Run().stats;
  ASSERT_TRUE(stats.serializable);
  EXPECT_EQ(stats.checked_txns, stats.committed);
  EXPECT_EQ(stats.held_txns, 0u);
  ASSERT_TRUE(runner::CheckAccounting(stats, 0, false, nullptr).ok());

  // The checker must examine every committed transaction, no more.
  runner::RunStats missed = stats;
  --missed.checked_txns;
  const Status checked = runner::CheckAccounting(missed, 0, false, nullptr);
  EXPECT_EQ(checked.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(checked.message().find("serializability: checked 39 "
                                   "transactions, committed 40"),
            std::string::npos)
      << checked.ToString();

  // A serializable verdict leaves nothing held; a missed abort or a lost
  // record would.
  runner::RunStats leaked = stats;
  leaked.held_txns = 3;
  const Status held = runner::CheckAccounting(leaked, 0, false, nullptr);
  EXPECT_EQ(held.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(held.message().find("left 3 transactions held"),
            std::string::npos)
      << held.ToString();
  // A cycle's transactions stay held: that is the verdict, not a leak.
  leaked.serializable = false;
  EXPECT_TRUE(runner::CheckAccounting(leaked, 0, false, nullptr).ok());
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

}  // namespace
}  // namespace unicc
