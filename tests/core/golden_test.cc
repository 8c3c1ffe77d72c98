// Golden determinism suite: every shipped scenario must produce a
// byte-identical result snapshot when run twice, and when its workload is
// round-tripped through the binary trace codec (record -> replay). Any
// nondeterminism in the event loop's ordering, the queue managers' grant
// decisions or the workload generators shows up here as a snapshot
// mismatch naming the scenario. pinned_scenarios_test compares the same
// snapshots with the committed results.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/snapshot.h"
#include "scenario/scenario.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace unicc {
namespace {

using runner::RunStats;
using test::RunScenario;
using test::ShippedScenarios;
using test::Snapshot;

class GoldenScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioTest, RepeatedRunsAreByteIdentical) {
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  // Open-system scenarios stream their workload through the MPL cap and
  // possibly the bounded overload gate, so shed and expired transactions
  // join the accounting.
  if (spec->IsOpenSystem()) {
    const RunStats first = RunScenario(*spec);
    const RunStats second = RunScenario(*spec);
    EXPECT_EQ(Snapshot(first), Snapshot(second))
        << GetParam() << ": two identical runs diverged";
    EXPECT_TRUE(first.serializable) << GetParam();
    EXPECT_TRUE(first.replicas_consistent) << GetParam();
    // Shedding means not every offered transaction is admitted, but each
    // offered one ends exactly once: committed, expired, or dropped at
    // the gate. A horizon or commit target closes admission early, so
    // the exact accounting only holds when the whole class is offered.
    const std::uint64_t accounted =
        first.committed + first.expired + (first.shed - first.retried);
    if (spec->engine.run.time_horizon == 0 &&
        spec->engine.run.commit_target == 0) {
      EXPECT_EQ(accounted, spec->TotalTxns()) << GetParam();
    } else {
      EXPECT_LE(accounted, spec->TotalTxns()) << GetParam();
    }
    return;
  }

  const ScenarioSpec::Workload wl = spec->BuildWorkload();
  const RunStats first = RunScenario(*spec, &wl.arrivals, wl.forced);
  const RunStats second = RunScenario(*spec, &wl.arrivals, wl.forced);
  EXPECT_EQ(Snapshot(first), Snapshot(second))
      << GetParam() << ": two identical runs diverged";
  EXPECT_TRUE(first.serializable) << GetParam();
  EXPECT_TRUE(first.replicas_consistent) << GetParam();
  EXPECT_EQ(first.committed, spec->TotalTxns()) << GetParam();
}

TEST_P(GoldenScenarioTest, RebuiltWorkloadIsByteIdentical) {
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // BuildWorkload is part of the determinism contract too: two builds must
  // yield the same arrivals (same trace bytes).
  const ScenarioSpec::Workload a = spec->BuildWorkload();
  const ScenarioSpec::Workload b = spec->BuildWorkload();
  EXPECT_EQ(WorkloadTrace::Serialize(a.arrivals),
            WorkloadTrace::Serialize(b.arrivals))
      << GetParam() << ": workload generation diverged";
}

TEST_P(GoldenScenarioTest, RecordReplayRoundTripIsByteIdentical) {
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  if (spec->IsOpenSystem()) {
    GTEST_SKIP() << "the trace codec does not carry per-txn deadlines or "
                    "priorities, so a round trip cannot match the live run";
  }
  const ScenarioSpec::Workload wl = spec->BuildWorkload();

  const RunStats direct = RunScenario(*spec, &wl.arrivals, wl.forced);
  // Record -> replay through UCTC v2, as unicc_sim's --record-trace and
  // --replay-trace do by default.
  const std::string path = ::testing::TempDir() + "/golden_record.uctc";
  ASSERT_TRUE(WriteTraceV2File(path, wl.arrivals).ok());
  auto replayed = ReadTraceV2File(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const RunStats replay = RunScenario(*spec, &*replayed, wl.forced);
  EXPECT_EQ(Snapshot(direct), Snapshot(replay))
      << GetParam() << ": record->replay diverged";
}

TEST_P(GoldenScenarioTest, TraceV2RoundTripIsByteIdentical) {
  // The streaming columnar codec must preserve every shipped workload
  // bit-for-bit: write through UCTC v2, read back, and compare via the
  // text serialization (which the other golden tests already pin).
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScenarioSpec::Workload wl = spec->BuildWorkload();
  const std::string path = ::testing::TempDir() + "/golden_v2.uctc";
  ASSERT_TRUE(WriteTraceV2File(path, wl.arrivals).ok());
  auto replayed = ReadTraceV2File(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(WorkloadTrace::Serialize(wl.arrivals),
            WorkloadTrace::Serialize(*replayed))
      << GetParam() << ": UCTC v2 round trip diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenScenarioTest, ::testing::ValuesIn(ShippedScenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return std::filesystem::path(info.param).stem().string();
    });

}  // namespace
}  // namespace unicc
