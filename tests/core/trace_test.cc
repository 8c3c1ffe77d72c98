#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../test_util.h"
#include "scenario/scenario.h"

namespace unicc {
namespace {

using test::Drain;

// A class of 2-5 item transactions, 40% reads, 20 arrivals/s, uniform
// popularity drawn as a Zipf CDF walk at theta = 0.
ScenarioClass SampleClass(std::uint64_t txns) {
  ScenarioClass c;
  c.txns = txns;
  c.rate = 20;
  c.size_min = 2;
  c.size_max = 5;
  c.read_fraction = 0.4;
  c.access = ScenarioClass::AccessKind::kZipf;
  return c;
}

std::vector<Arrival> SampleArrivals() {
  std::vector<Arrival> arrivals =
      Drain(*OpenClass(SampleClass(40), 64, 3, Rng(77)));
  // Give some transactions non-default protocols and intervals.
  arrivals[3].spec.protocol = Protocol::kPrecedenceAgreement;
  arrivals[3].spec.backoff_interval = 128;
  arrivals[7].spec.protocol = Protocol::kTimestampOrdering;
  return arrivals;
}

TEST(WorkloadTraceTest, RoundTripPreservesEverything) {
  const auto original = SampleArrivals();
  const std::string text = WorkloadTrace::Serialize(original);
  auto parsed = WorkloadTrace::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original[i];
    const auto& b = (*parsed)[i];
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.spec.home, b.spec.home);
    EXPECT_EQ(a.spec.protocol, b.spec.protocol);
    EXPECT_EQ(a.spec.compute_time, b.spec.compute_time);
    EXPECT_EQ(a.spec.backoff_interval, b.spec.backoff_interval);
    EXPECT_EQ(a.spec.read_set, b.spec.read_set);
    EXPECT_EQ(a.spec.write_set, b.spec.write_set);
  }
}

TEST(WorkloadTraceTest, CommentsAndBlankLinesIgnored) {
  auto parsed = WorkloadTrace::Parse(
      "# a comment\n\ntxn 1 100 0 2pl 5000 0 r 1 2 w 3\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].spec.read_set, (std::vector<ItemId>{1, 2}));
  EXPECT_EQ((*parsed)[0].spec.write_set, (std::vector<ItemId>{3}));
}

TEST(WorkloadTraceTest, ReadOnlyAndWriteOnlyTransactions) {
  auto parsed = WorkloadTrace::Parse(
      "txn 1 0 0 to 0 0 r 5 w\n"
      "txn 2 1 0 pa 0 64 r w 6 7\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)[0].spec.write_set.empty());
  EXPECT_TRUE((*parsed)[1].spec.read_set.empty());
}

TEST(WorkloadTraceTest, RejectsMalformedInput) {
  EXPECT_FALSE(WorkloadTrace::Parse("nonsense\n").ok());
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 xxx 0 0 r w 1\n").ok());
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 w 1\n").ok());
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 1\n").ok());
  EXPECT_FALSE(
      WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r abc w 1\n").ok());
  // Validation failures propagate (item in both sets).
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 1 w 1\n").ok());
}

TEST(WorkloadTraceTest, RejectsSignedAndOverflowingItemTokens) {
  // std::stoul would quietly take all of these: "-1" wraps to 2^32-1,
  // "+5" parses as 5, and 2^32 truncates to 0 on conversion. The parser
  // must reject them while still accepting the full unsigned 32-bit range.
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r -1 w 2\n").ok());
  EXPECT_FALSE(WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 1 w +5\n").ok());
  EXPECT_FALSE(
      WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 4294967296 w 2\n").ok());
  EXPECT_FALSE(
      WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 18446744073709551617 w 2\n")
          .ok());
  auto parsed = WorkloadTrace::Parse("txn 1 0 0 2pl 0 0 r 4294967295 w 2\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)[0].spec.read_set, (std::vector<ItemId>{4294967295u}));
}

TEST(WorkloadTraceTest, FileRoundTrip) {
  const auto original = SampleArrivals();
  const std::string path = ::testing::TempDir() + "/unicc_trace_test.txt";
  ASSERT_TRUE(WorkloadTrace::WriteFile(path, original).ok());
  auto parsed = WorkloadTrace::ReadFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), original.size());
}

TEST(WorkloadTraceTest, ReadFileRejectsRetiredV1WithConversionHint) {
  // UCTB v1 is retired: its magic must not fall through to the text
  // parser's "malformed header", but name the format and the way out.
  const std::string path = ::testing::TempDir() + "/unicc_trace_v1.bin";
  std::ofstream(path, std::ios::binary) << std::string("UCTB\x01\0", 6);
  auto parsed = WorkloadTrace::ReadFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("UCTB v1 binary traces are "
                                           "retired: replay this one with "
                                           "an older unicc_sim"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(WorkloadTraceCsvTest, ExportMatchesGolden) {
  std::vector<Arrival> arrivals(2);
  arrivals[0].when = 100;
  arrivals[0].spec.id = 1;
  arrivals[0].spec.home = 2;
  arrivals[0].spec.protocol = Protocol::kPrecedenceAgreement;
  arrivals[0].spec.compute_time = 5000;
  arrivals[0].spec.backoff_interval = 64;
  arrivals[0].spec.read_set = {3, 4};
  arrivals[0].spec.write_set = {5};
  arrivals[1].when = 250;
  arrivals[1].spec.id = 2;
  arrivals[1].spec.write_set = {9};
  EXPECT_EQ(WorkloadTrace::ExportCsv(arrivals),
            "txn_id,arrival_us,home,protocol,compute_us,backoff_interval,"
            "reads,writes\n"
            "1,100,2,pa,5000,64,3;4,5\n"
            "2,250,0,2pl,0,0,,9\n");
}

TEST(WorkloadTraceDeterminismTest, SerializationIsStableAcrossSeeds) {
  // Same seed -> byte-identical trace; a different seed must change the
  // workload. This is what makes recorded traces a sound cross-version
  // replay contract.
  ScenarioClass c = SampleClass(30);
  c.size_max = 4;
  c.read_fraction = 0.5;
  auto generate = [&](std::uint64_t seed) {
    return Drain(*OpenClass(c, 64, 3, Rng(seed)));
  };
  EXPECT_EQ(WorkloadTrace::Serialize(generate(1)),
            WorkloadTrace::Serialize(generate(1)));
  EXPECT_NE(WorkloadTrace::Serialize(generate(1)),
            WorkloadTrace::Serialize(generate(2)));
}

TEST(WorkloadTraceTest, MissingFileIsNotFound) {
  auto parsed = WorkloadTrace::ReadFile("/nonexistent/path/trace.txt");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace unicc
