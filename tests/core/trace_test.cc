// Text trace codec and CSV export: the line writer, the streaming text
// reader, and the openers that pick a trace format.
#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../test_util.h"
#include "scenario/scenario.h"
#include "workload/trace_io.h"

namespace unicc {
namespace {

using test::Digest;
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

std::string Write(const std::vector<Arrival>& arrivals,
                  LineFormat format = LineFormat::kText) {
  std::ostringstream sink;
  auto writer = MakeLineWriter(&sink, format);
  for (const Arrival& a : arrivals) EXPECT_TRUE(writer->Append(a).ok());
  EXPECT_TRUE(writer->Finish().ok());
  return sink.str();
}

// Every arrival of `text`, or the reader's error.
StatusOr<std::vector<Arrival>> Read(const std::string& text) {
  std::istringstream in(text);
  auto reader = MakeTextTraceReader(&in);
  std::vector<Arrival> arrivals = Drain(*reader);
  if (!reader->status().ok()) return reader->status();
  return arrivals;
}

TEST(TextTraceTest, RoundTripPreservesEverything) {
  const auto original = SampleArrivals();
  auto parsed = Read(Write(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  EXPECT_EQ(Digest(*parsed), Digest(original));
}

TEST(TextTraceTest, CommentsAndBlankLinesIgnored) {
  auto parsed = Read("# a comment\n\ntxn 1 100 0 2pl 5000 0 r 1 2 w 3\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].spec.read_set, (std::vector<ItemId>{1, 2}));
  EXPECT_EQ((*parsed)[0].spec.write_set, (std::vector<ItemId>{3}));
}

TEST(TextTraceTest, ReadOnlyAndWriteOnlyTransactions) {
  auto parsed = Read(
      "txn 1 0 0 to 0 0 r 5 w\n"
      "txn 2 1 0 pa 0 64 r w 6 7\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)[0].spec.write_set.empty());
  EXPECT_TRUE((*parsed)[1].spec.read_set.empty());
}

TEST(TextTraceTest, RejectsMalformedInputNamingTheLine) {
  EXPECT_FALSE(Read("nonsense\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 xxx 0 0 r w 1\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 w 1\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 1\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r abc w 1\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 1 w 2 w 3\n").ok());
  // Validation failures propagate (item in both sets).
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 1 w 1\n").ok());
  // Comments and blank lines count: the error names the file's line.
  auto parsed = Read("# header\n\ntxn 1 0 0 2pl 0 0 r 1 w 2\ntxn 2 0 0 xxx\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "trace line 4: malformed header");
}

TEST(TextTraceTest, ReaderServesTheRecordsBeforeABadLine) {
  std::istringstream in(
      "txn 1 0 0 2pl 0 0 r 1 w 2\n"
      "txn 2 5 0 2pl 0 0 r 1 w 1\n"
      "txn 3 9 0 2pl 0 0 r 1 w 2\n");
  auto reader = MakeTextTraceReader(&in);
  Arrival a;
  ASSERT_TRUE(reader->Next(&a));
  EXPECT_EQ(a.spec.id, 1u);
  EXPECT_TRUE(reader->status().ok());
  EXPECT_FALSE(reader->Next(&a));
  EXPECT_EQ(a.spec.id, 1u) << "a failed Next() left its output untouched";
  EXPECT_EQ(reader->status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader->status().message().find("trace line 2: "),
            std::string::npos)
      << reader->status().ToString();
  // The failure is final: line 3 is never served.
  EXPECT_FALSE(reader->Next(&a));
}

TEST(TextTraceTest, RejectsSignedAndOverflowingItemTokens) {
  // std::stoul would quietly take all of these: "-1" wraps to 2^32-1,
  // "+5" parses as 5, and 2^32 truncates to 0 on conversion. The parser
  // must reject them while still accepting the full unsigned 32-bit range.
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r -1 w 2\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 1 w +5\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 4294967296 w 2\n").ok());
  EXPECT_FALSE(Read("txn 1 0 0 2pl 0 0 r 18446744073709551617 w 2\n").ok());
  auto parsed = Read("txn 1 0 0 2pl 0 0 r 4294967295 w 2\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)[0].spec.read_set, (std::vector<ItemId>{4294967295u}));
}

TEST(TextTraceTest, KeepsTheStreamsTimeOrder) {
  // The reader rejects an arrival earlier than the one before it, naming
  // the line; equal times are in order.
  auto parsed = Read(
      "txn 1 5000 0 2pl 0 0 r 1 w 2\n"
      "txn 2 5000 1 2pl 0 0 r 3 w\n"
      "# comment\n"
      "txn 3 1000 1 2pl 0 0 r 3 w\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "trace line 4: arrivals out of time order (1000 us after 5000 us)");
  // The writer refuses one, as TraceWriter::Append does.
  std::ostringstream sink;
  auto writer = MakeLineWriter(&sink, LineFormat::kText);
  Arrival a;
  a.when = 5000;
  a.spec.id = 1;
  a.spec.read_set = {1};
  ASSERT_TRUE(writer->Append(a).ok());
  Arrival earlier = a;
  earlier.when = 1000;
  earlier.spec.id = 2;
  const Status refused = writer->Append(earlier);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("nondecreasing time order (record 1)"),
            std::string::npos)
      << refused.ToString();
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(sink.str(), "txn 1 5000 0 2pl 0 0 r 1 w\n");
  EXPECT_FALSE(writer->Append(a).ok()) << "append after Finish";
}

TEST(TextTraceTest, SerializationIsStableAcrossSeeds) {
  // Same seed -> byte-identical trace; a different seed must change the
  // workload. This is what makes recorded traces a sound cross-version
  // replay contract.
  ScenarioClass c = SampleClass(30);
  c.size_max = 4;
  c.read_fraction = 0.5;
  auto generate = [&](std::uint64_t seed) {
    return Write(Drain(*OpenClass(c, 64, 3, Rng(seed))));
  };
  EXPECT_EQ(generate(1), generate(1));
  EXPECT_NE(generate(1), generate(2));
}

TEST(CsvExportTest, ExportMatchesGolden) {
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
  const std::string header =
      "txn_id,arrival_us,home,protocol,compute_us,backoff_interval,"
      "reads,writes\n";
  EXPECT_EQ(Write(arrivals, LineFormat::kCsv),
            header +
                "1,100,2,pa,5000,64,3;4,5\n"
                "2,250,0,2pl,0,0,,9\n");
  EXPECT_EQ(Write({}, LineFormat::kCsv), header);
}

// The openers pick the format: OpenTraceWriter from the name, and
// OpenTraceReader from the leading bytes, whatever the name.
TEST(TraceOpenerTest, FileRoundTripInBothFormats) {
  const auto original = SampleArrivals();
  const std::string dir = ::testing::TempDir();
  for (const std::string name : {"unicc_trace_test.txt", "unicc_trace_test.v2"}) {
    const std::string path = dir + "/" + name;
    auto writer = OpenTraceWriter(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Arrival& a : original) ASSERT_TRUE((*writer)->Append(a).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
    std::ifstream file(path, std::ios::binary);
    std::string head(4, '\0');
    file.read(head.data(), 4);
    EXPECT_EQ(head == "UCTC", name.ends_with(".v2")) << name << ": " << head;
    auto reader = OpenTraceReader(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(Digest(Drain(**reader)), Digest(original)) << name;
    EXPECT_TRUE((*reader)->status().ok()) << (*reader)->status().ToString();
    std::remove(path.c_str());
  }
}

TEST(TraceOpenerTest, RejectsRetiredV1WithConversionHint) {
  // UCTB v1 is retired: its magic must not fall through to the text
  // parser's "malformed header", but name the format and the way out.
  const std::string path = ::testing::TempDir() + "/unicc_trace_v1.bin";
  std::ofstream(path, std::ios::binary) << std::string("UCTB\x01\0", 6);
  auto reader = OpenTraceReader(path);
  std::remove(path.c_str());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("UCTB v1 binary traces are "
                                           "retired: replay this one with "
                                           "an older unicc_sim"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(TraceOpenerTest, MissingFileIsNotFound) {
  auto reader = OpenTraceReader("/nonexistent/path/trace.txt");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(OpenTraceWriter("/nonexistent/path/trace.txt").ok());
  EXPECT_FALSE(OpenCsvExport("/nonexistent/path/trace.csv").ok());
}

}  // namespace
}  // namespace unicc
