// Run watchdog: a wedged run converts into a descriptive Status instead
// of spinning, a healthy run under the watchdog is byte-identical to an
// unwatched one, and Engine::Run() applies the watchdog itself, without
// RunSession.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "engine/builder.h"
#include "runner/runner.h"
#include "scenario/scenario.h"

namespace unicc {
namespace {

using runner::RunReport;
using runner::RunRequest;
using runner::RunSession;

constexpr char kSmallScenario[] = R"(
[scenario]
name = watchdog-unit

[engine]
user_sites = 2
data_sites = 2
items = 16
delay_ms = 2
jitter_ms = 1
seed = 5
request_timeout_ms = 100

[policy]
kind = fixed
protocol = 2pl

[class main]
txns = 20
rate = 200
size = 2..3
read_fraction = 0.5
compute_ms = 1
)";

ScenarioSpec Spec(const std::string& extra) {
  auto spec = ScenarioSpec::Parse(std::string(kSmallScenario) + extra);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

RunReport RunSpec(const ScenarioSpec& spec) {
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return RunReport{};
  return (*session)->Run();
}

TEST(WatchdogTest, WedgedRunTripsTheStallDetector) {
  // Both data sites fail-stop at 20 ms and stay down far past anything
  // the run could wait out; with no request timeout the in-flight work
  // can never complete, while the (default central) deadlock detector
  // keeps the event queue ticking forever — the exact shape that would
  // previously spin inside Run(). The stall detector must convert it
  // into a descriptive failure within its configured window.
  const ScenarioSpec spec = Spec(
      "\n[fault]\ncrashes = 2@20+600000, 3@20+600000\n"
      "\n[run]\nmax_inflight = 2\nstall_ms = 400\n");
  const RunReport r = RunSpec(spec);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status.ToString().find("stalled"), std::string::npos)
      << r.status.ToString();
  // The message names the last progress point for triage.
  EXPECT_NE(r.status.ToString().find("last progress"), std::string::npos)
      << r.status.ToString();
  // The partial summary is still extracted: nothing committed after the
  // wedge means fewer than the full 20.
  EXPECT_LT(r.stats.committed, 20u);
}

TEST(WatchdogTest, BareEngineRunTripsTheStallDetector) {
  // The same wedge, built straight through EngineBuilder: Engine::Run()
  // reads options().watchdog itself, so it reports the stall through its
  // summary, with the message RunSession reports, instead of ignoring
  // stall_ms and running on through the 600 s outage.
  const ScenarioSpec spec = Spec(
      "\n[fault]\ncrashes = 2@20+600000, 3@20+600000\n"
      "\n[run]\nmax_inflight = 2\nstall_ms = 400\n");
  ASSERT_TRUE(spec.IsOpenSystem());
  auto built = EngineBuilder(spec.engine)
                   .WithProtocolPolicy(FixedProtocol(spec.policy.fixed))
                   .WithArrivalStream(spec.Open().stream)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const RunSummary summary = (*built)->Run();
  ASSERT_FALSE(summary.status.ok());
  EXPECT_EQ(summary.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(summary.status.ToString().find("stalled"), std::string::npos)
      << summary.status.ToString();
  EXPECT_NE(summary.status.ToString().find("last progress"), std::string::npos)
      << summary.status.ToString();
  EXPECT_LT(summary.committed, 20u);
  EXPECT_EQ(summary.status.ToString(), RunSpec(spec).status.ToString());
}

TEST(WatchdogTest, StallDetectionIsDeterministic) {
  const ScenarioSpec spec = Spec(
      "\n[fault]\ncrashes = 2@20+600000, 3@20+600000\n"
      "\n[run]\nmax_inflight = 2\nstall_ms = 400\n");
  const RunReport a = RunSpec(spec);
  const RunReport b = RunSpec(spec);
  ASSERT_FALSE(a.status.ok());
  EXPECT_EQ(a.status.ToString(), b.status.ToString());
  EXPECT_EQ(a.stats.committed, b.stats.committed);
  EXPECT_EQ(a.stats.makespan, b.stats.makespan);
}

TEST(WatchdogTest, HealthyRunUnderWatchdogMatchesUnwatched) {
  // A generous stall window on a run that drains normally: the watchdog
  // drives the engine in windows, which must not perturb the result.
  const ScenarioSpec watched =
      Spec("\n[run]\nmax_inflight = 4\nstall_ms = 5000\n");
  const ScenarioSpec plain = Spec("\n[run]\nmax_inflight = 4\n");
  const RunReport w = RunSpec(watched);
  const RunReport p = RunSpec(plain);
  EXPECT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_EQ(w.stats.committed, 20u);
  EXPECT_EQ(w.stats.committed, p.stats.committed);
  EXPECT_EQ(w.stats.makespan, p.stats.makespan);
  EXPECT_EQ(w.stats.total_messages, p.stats.total_messages);
  EXPECT_EQ(w.stats.mean_s_ms, p.stats.mean_s_ms);
  EXPECT_TRUE(w.stats.serializable);
}

TEST(WatchdogTest, RunDeadlineConvertsToStatus) {
  // A 1 microsecond wall-clock budget trips on the first window check;
  // the run reports instead of continuing. The workload is long enough
  // (several simulated seconds) that it cannot drain within one window.
  auto parsed = ScenarioSpec::Parse(R"(
[engine]
user_sites = 2
data_sites = 2
items = 16
delay_ms = 2
seed = 5

[class main]
txns = 2000
rate = 500
size = 2..3

[run]
max_inflight = 4
run_deadline_ms = 0.001
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec spec = std::move(*parsed);
  const RunReport r = RunSpec(spec);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status.ToString().find("deadline"), std::string::npos)
      << r.status.ToString();
}

}  // namespace
}  // namespace unicc
