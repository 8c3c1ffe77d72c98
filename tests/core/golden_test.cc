// Golden determinism suite: every shipped scenario must produce a
// byte-identical result snapshot when run twice, and when its workload is
// round-tripped through the binary trace codec (record -> replay). This
// pins the simulation core down so hot-path rewrites cannot silently
// change results: any drift in the event loop's ordering, the queue
// managers' grant decisions or the workload generators shows up here as a
// snapshot mismatch naming the scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runner/runner.h"
#include "scenario/scenario.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

#ifndef UNICC_SCENARIOS_DIR
#error "UNICC_SCENARIOS_DIR must point at the shipped scenarios/ directory"
#endif

namespace unicc {
namespace {

using runner::RunStats;

// Runs `spec` through the runner facade: the scenario's own workload, or
// `arrivals` with their forced-protocol set when given (the replay path).
RunStats RunScenario(
    const ScenarioSpec& spec,
    const std::vector<WorkloadGenerator::Arrival>* arrivals = nullptr,
    std::shared_ptr<const std::unordered_set<TxnId>> forced = nullptr) {
  runner::RunRequest request;
  request.spec = &spec;
  request.arrivals = arrivals;
  request.forced = std::move(forced);
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) {
    ADD_FAILURE() << session.status().ToString();
    return RunStats();
  }
  return (*session)->Run().stats;
}

// Serializes every deterministic field of a run. Doubles are printed with
// %.17g: bit-identical runs print identical bytes, and any numeric drift
// is visible in the diff.
std::string Snapshot(const RunStats& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "admitted=%llu committed=%llu makespan=%llu messages=%llu "
      "log_records=%llu replicas=%d victims=%llu rejects=%llu "
      "backoffs=%llu shed=%llu expired=%llu retried=%llu goodput=%llu "
      "serializable=%d mean_s=%.17g p95_s=%.17g "
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
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.retried),
      static_cast<unsigned long long>(s.goodput),
      s.serializable ? 1 : 0, s.mean_s_ms, s.p95_s_ms, s.msgs_per_txn,
      s.cc_msgs_per_txn, s.throughput);
  std::string out(buf);
  for (int p = 0; p < kNumProtocols; ++p) {
    std::snprintf(buf, sizeof(buf), " proto%d=%llu/%.17g", p,
                  static_cast<unsigned long long>(s.committed_by_proto[p]),
                  s.mean_s_ms_by_proto[p]);
    out += buf;
  }
  return out;
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
