// Golden workload suite: every shipped scenario must build the same
// workload twice, and its workload must survive both trace codecs bit
// for bit. Runs are checked against their committed results, live and
// replayed, by pinned_scenarios_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "../test_util.h"
#include "core/snapshot.h"
#include "scenario/scenario.h"
#include "workload/trace.h"

namespace unicc {
namespace {

using test::Digest;
using test::ShippedScenarios;

class GoldenScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioTest, RebuiltWorkloadIsByteIdentical) {
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // BuildWorkload is part of the determinism contract too: two builds must
  // yield the same arrivals.
  EXPECT_EQ(Digest(spec->BuildWorkload().arrivals),
            Digest(spec->BuildWorkload().arrivals))
      << GetParam() << ": workload generation diverged";
}

TEST_P(GoldenScenarioTest, TraceRoundTripsAreBitIdentical) {
  // Each codec must preserve every shipped workload bit for bit: stream
  // the scenario into a UCTC v2 and a text file, read each back through
  // the opener, and compare digests.
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::uint64_t built = Digest(spec->BuildWorkload().arrivals);
  const std::string stem = std::filesystem::path(GetParam()).stem();
  for (const char* ext : {".uctc", ".txt"}) {
    const std::string path = ::testing::TempDir() + "/golden_" + stem + ext;
    auto writer = OpenTraceWriter(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    Status s;
    PumpStream(*spec->Open().stream, [&](const Arrival& a) {
      if (s.ok()) s = (*writer)->Append(a);
    });
    if (s.ok()) s = (*writer)->Finish();
    ASSERT_TRUE(s.ok()) << path << ": " << s.ToString();
    auto reader = OpenTraceReader(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(Digest(test::Drain(**reader)), built)
        << GetParam() << ": " << ext << " round trip diverged";
    EXPECT_TRUE((*reader)->status().ok()) << (*reader)->status().ToString();
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenScenarioTest, ::testing::ValuesIn(ShippedScenarios()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return std::filesystem::path(info.param).stem().string();
    });

}  // namespace
}  // namespace unicc
