// Golden workload suite: every shipped scenario must build the same
// workload twice, and its workload must survive the UCTC v2 codec byte
// for byte. Runs are checked against their committed results, live and
// replayed, by pinned_scenarios_test.
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

using test::ShippedScenarios;

class GoldenScenarioTest : public ::testing::TestWithParam<std::string> {};

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

TEST_P(GoldenScenarioTest, TraceV2RoundTripIsByteIdentical) {
  // The streaming columnar codec must preserve every shipped workload
  // bit-for-bit: write through UCTC v2, read back, and compare via the
  // text serialization.
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
