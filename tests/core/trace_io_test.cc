// UCTC v2 streaming columnar trace codec: round trips (single- and
// multi-block), the on-disk golden layout, the corrupt-input corpus, the
// bounded-memory property on both sides, and a streamed on-disk round trip
// whose digest is pinned. Byte offsets in the corruption tests are derived
// from the layout documented in workload/trace_io.h.
//
// Environment:
//   UNICC_TRACE_ROUNDTRIP_TXNS — transactions in the streamed round trip
//                                (default 50,000; CI runs 10^6 on every
//                                push and 10^8, a ~7 GB file, nightly)
#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../test_util.h"
#include "scenario/scenario.h"
#include "workload/trace.h"

namespace unicc {
namespace {

using test::Drain;

// A class with `txns` transactions of size_min..size_max items, 20
// arrivals/s, uniform popularity drawn as a Zipf CDF walk at theta = 0.
ScenarioClass SampleClass(std::uint64_t txns, std::uint32_t size_min,
                          std::uint32_t size_max, double read_fraction) {
  ScenarioClass c;
  c.txns = txns;
  c.rate = 20;
  c.size_min = size_min;
  c.size_max = size_max;
  c.read_fraction = read_fraction;
  c.access = ScenarioClass::AccessKind::kZipf;
  return c;
}

std::vector<Arrival> SampleArrivals() {
  std::vector<Arrival> arrivals =
      Drain(*OpenClass(SampleClass(40, 2, 5, 0.4), 64, 3, Rng(77)));
  arrivals[3].spec.protocol = Protocol::kPrecedenceAgreement;
  arrivals[3].spec.backoff_interval = 128;
  arrivals[7].spec.protocol = Protocol::kTimestampOrdering;
  return arrivals;
}

void ExpectArrivalsEqual(const std::vector<Arrival>& a,
                         const std::vector<Arrival>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].spec.id, b[i].spec.id);
    EXPECT_EQ(a[i].spec.home, b[i].spec.home);
    EXPECT_EQ(a[i].spec.protocol, b[i].spec.protocol);
    EXPECT_EQ(a[i].spec.compute_time, b[i].spec.compute_time);
    EXPECT_EQ(a[i].spec.backoff_interval, b[i].spec.backoff_interval);
    EXPECT_EQ(a[i].spec.read_set, b[i].spec.read_set);
    EXPECT_EQ(a[i].spec.write_set, b[i].spec.write_set);
  }
}

std::string Encode(const std::vector<Arrival>& arrivals,
                   std::uint32_t block_records = kDefaultBlockRecords) {
  std::ostringstream sink;
  auto writer = TraceWriter::ToStream(&sink, {block_records});
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const Arrival& a : arrivals) {
    EXPECT_TRUE((*writer)->Append(a).ok());
  }
  EXPECT_TRUE((*writer)->Finish().ok());
  return sink.str();
}

StatusOr<std::vector<Arrival>> Decode(const std::string& bytes) {
  std::istringstream in(bytes);
  auto reader = TraceReader::FromStream(&in);
  if (!reader.ok()) return reader.status();
  std::vector<Arrival> out;
  Arrival a;
  while ((*reader)->Next(&a)) out.push_back(std::move(a));
  if (!(*reader)->status().ok()) return (*reader)->status();
  return out;
}

TEST(TraceV2Test, RoundTripPreservesEverything) {
  const auto original = SampleArrivals();
  auto decoded = Decode(Encode(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectArrivalsEqual(original, *decoded);
}

TEST(TraceV2Test, MultiBlockRoundTripPreservesEverything) {
  // 40 records at 7 per block: five full blocks plus a partial one, so
  // block boundaries, the per-block offset index reset and the partial
  // flush in Finish() are all exercised.
  const auto original = SampleArrivals();
  auto decoded = Decode(Encode(original, 7));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectArrivalsEqual(original, *decoded);
}

TEST(TraceV2Test, MultiBlockFileReadsBackThroughTheOpener) {
  // OpenTraceReader sniffs the magic and routes UCTC files through the
  // v2 reader, whatever the file's name.
  const auto original = SampleArrivals();
  const std::string path = ::testing::TempDir() + "/unicc_trace_io.txt";
  {
    std::ofstream file(path, std::ios::binary);
    auto writer = TraceWriter::ToStream(&file, {8});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Arrival& a : original) ASSERT_TRUE((*writer)->Append(a).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto reader = OpenTraceReader(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ExpectArrivalsEqual(original, Drain(**reader));
  EXPECT_TRUE((*reader)->status().ok()) << (*reader)->status().ToString();
  std::remove(path.c_str());
}

TEST(TraceV2Test, GoldenEmptyFileLayout) {
  // The on-disk framing is a contract: header (magic "UCTC", version 2 LE
  // u16, block-records hint LE u32) followed directly by the footer (zero
  // count LE u32, total-records LE u64). Breaking this golden test means
  // bumping kTraceV2Version and keeping a reader for version 2.
  const std::string bytes = Encode({});
  ASSERT_EQ(bytes.size(), 22u);
  EXPECT_EQ(bytes.substr(0, 4), "UCTC");
  EXPECT_EQ(bytes[4], 2);  // version lo byte
  EXPECT_EQ(bytes[5], 0);  // version hi byte
  // Default block-records hint: 4096 = 0x1000 little-endian.
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), 0x00u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[7]), 0x10u);
  EXPECT_EQ(bytes[8], 0);
  EXPECT_EQ(bytes[9], 0);
  for (int i = 10; i < 22; ++i) EXPECT_EQ(bytes[i], 0) << "footer byte " << i;
  auto decoded = Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

// Two handcrafted arrivals with a known byte layout, used by the
// corruption corpus below. The single block spans:
//   header 0..10 | block head 10..22 | id 22..38 | when 38..54 |
//   home 54..62 | proto 62..64 | compute 64..80 | backoff 80..96 |
//   read_end 96..104 | write_end 104..112 | read_items 112..124 |
//   write_items 124..136 | footer 136..148
std::vector<Arrival> TwoArrivals() {
  std::vector<Arrival> v(2);
  v[0].when = 100;
  v[0].spec.id = 1;
  v[0].spec.read_set = {1, 2};
  v[0].spec.write_set = {3};
  v[1].when = 200;
  v[1].spec.id = 2;
  v[1].spec.home = 1;
  v[1].spec.read_set = {4};
  v[1].spec.write_set = {5, 6};
  return v;
}

TEST(TraceV2CorruptTest, HandcraftedLayoutHasTheDocumentedSize) {
  // 10 header + 12 block head + 2*45 fixed + 6*4 items + 12 footer.
  EXPECT_EQ(Encode(TwoArrivals()).size(), 148u);
}

TEST(TraceV2CorruptTest, RejectsBadMagicAndVersion) {
  std::string bytes = Encode(TwoArrivals());
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Decode(bad_magic).ok());
  std::string bad_version = bytes;
  bad_version[4] = 9;
  EXPECT_FALSE(Decode(bad_version).ok());
  EXPECT_FALSE(Decode(bytes.substr(0, 6)).ok());  // truncated header
}

TEST(TraceV2CorruptTest, RejectsTruncationAndTrailingBytes) {
  const std::string bytes = Encode(TwoArrivals());
  // Cut mid-block: the block body no longer fits before a footer.
  EXPECT_FALSE(Decode(bytes.substr(0, 100)).ok());
  // Cut mid-footer.
  EXPECT_FALSE(Decode(bytes.substr(0, bytes.size() - 5)).ok());
  // Junk after the zero-count footer.
  EXPECT_FALSE(Decode(bytes + "x").ok());
}

TEST(TraceV2CorruptTest, RejectsFooterTotalMismatch) {
  std::string bytes = Encode(TwoArrivals());
  bytes[bytes.size() - 8] = 5;  // footer claims 5 records, block holds 2
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2CorruptTest, BogusRecordCountIsBoundedBeforeAllocation) {
  // A corrupt count must come back as a Status, not an allocation: the
  // block body is bounded against the real remaining input size first.
  std::string bytes = Encode(TwoArrivals());
  for (int i = 10; i < 14; ++i) bytes[i] = '\xff';
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2CorruptTest, RejectsUnknownProtocolByte) {
  std::string bytes = Encode(TwoArrivals());
  bytes[62] = 7;  // proto column, record 0
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2CorruptTest, RejectsOutOfOrderArrivalTimes) {
  std::string bytes = Encode(TwoArrivals());
  bytes[46] = 10;  // when column, record 1: 200 -> 10, before record 0
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2CorruptTest, RejectsOffsetIndexOutOfBounds) {
  std::string past_end = Encode(TwoArrivals());
  past_end[96] = '\xc8';  // read_end[0]: 2 -> 200, past the item column
  EXPECT_FALSE(Decode(past_end).ok());
  std::string non_monotonic = Encode(TwoArrivals());
  non_monotonic[100] = 1;  // read_end[1]: 3 -> 1, below read_end[0]
  EXPECT_FALSE(Decode(non_monotonic).ok());
}

TEST(TraceV2CorruptTest, RejectsOffsetIndexNotCoveringItemColumns) {
  std::string bytes = Encode(TwoArrivals());
  bytes[108] = 2;  // write_end[1]: 3 -> 2; read+write totals leave an
                   // orphaned item word
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2CorruptTest, RejectsRecordFailingSpecValidation) {
  std::string bytes = Encode(TwoArrivals());
  bytes[112] = 3;  // read_items[0]: 1 -> 3, now also in the write set
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(TraceV2WriterTest, MemoryIsBoundedByOneBlock) {
  const auto arrivals = SampleArrivals();
  std::ostringstream sink;
  auto writer = TraceWriter::ToStream(&sink, {8});
  ASSERT_TRUE(writer.ok());
  std::uint64_t flushed_at = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ASSERT_TRUE((*writer)->Append(arrivals[i]).ok());
    EXPECT_LE((*writer)->buffered(), 8u);
    if ((i + 1) % 8 == 0) {
      // A full block was just flushed to the sink.
      EXPECT_EQ((*writer)->buffered(), 0u);
      EXPECT_GT((*writer)->bytes_written(), flushed_at);
      flushed_at = (*writer)->bytes_written();
    }
  }
  EXPECT_EQ((*writer)->records(), arrivals.size());
  ASSERT_TRUE((*writer)->Finish().ok());
  // Everything reached the sink, and the byte accounting agrees with it.
  EXPECT_EQ((*writer)->bytes_written(), sink.str().size());
}

TEST(TraceV2ReaderTest, BufferingIsBoundedByTheWriterBlockSize) {
  const std::string bytes = Encode(SampleArrivals(), 8);
  std::istringstream in(bytes);
  auto reader = TraceReader::FromStream(&in);
  ASSERT_TRUE(reader.ok());
  Arrival a;
  while ((*reader)->Next(&a)) {
    EXPECT_LT((*reader)->buffered(), 8u);
  }
  EXPECT_TRUE((*reader)->status().ok());
  EXPECT_EQ((*reader)->records_read(), 40u);
  // Exhaustion is final and stays healthy.
  EXPECT_FALSE((*reader)->Next(&a));
  EXPECT_TRUE((*reader)->status().ok());
}

TEST(TraceV2WriterTest, RejectsOutOfOrderAndInvalidAppends) {
  std::ostringstream sink;
  auto writer = TraceWriter::ToStream(&sink);
  ASSERT_TRUE(writer.ok());
  Arrival a;
  a.when = 100;
  a.spec.id = 1;
  a.spec.read_set = {1};
  ASSERT_TRUE((*writer)->Append(a).ok());
  Arrival earlier = a;
  earlier.when = 50;
  EXPECT_FALSE((*writer)->Append(earlier).ok());
  Arrival invalid = a;
  invalid.when = 200;
  invalid.spec.write_set = {1};  // item in both sets
  EXPECT_FALSE((*writer)->Append(invalid).ok());
}

TEST(TraceV2WriterTest, FinishIsIdempotentAndSealsTheWriter) {
  std::ostringstream sink;
  auto writer = TraceWriter::ToStream(&sink);
  ASSERT_TRUE(writer.ok());
  Arrival a;
  a.when = 1;
  a.spec.id = 1;
  a.spec.read_set = {1};
  ASSERT_TRUE((*writer)->Append(a).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  const std::size_t size = sink.str().size();
  EXPECT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ(sink.str().size(), size) << "second Finish emitted bytes";
  EXPECT_FALSE((*writer)->Append(a).ok()) << "append after Finish";
}

TEST(TraceV2WriterTest, AWriterDroppedUnfinishedLeavesATruncatedTrace) {
  // A conversion that fails part-way drops its writer: what it wrote must
  // not read back as a complete, shorter trace.
  std::ostringstream sink;
  {
    auto writer = TraceWriter::ToStream(&sink, {4});
    ASSERT_TRUE(writer.ok());
    for (const Arrival& a : SampleArrivals()) {
      ASSERT_TRUE((*writer)->Append(a).ok());
    }
  }
  auto decoded = Decode(sink.str());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos)
      << decoded.status().ToString();
}

TEST(TraceV2Test, DigestMatchesAcrossARoundTrip) {
  // The streamed round trip's correctness check: folding every arrival on
  // the write side and the read side must land on the same digest.
  const auto original = SampleArrivals();
  std::uint64_t write_digest = kTraceDigestSeed;
  for (const Arrival& a : original) {
    write_digest = FoldArrivalDigest(write_digest, a);
  }
  auto decoded = Decode(Encode(original, 8));
  ASSERT_TRUE(decoded.ok());
  std::uint64_t read_digest = kTraceDigestSeed;
  for (const Arrival& a : *decoded) {
    read_digest = FoldArrivalDigest(read_digest, a);
  }
  EXPECT_EQ(write_digest, read_digest);
  EXPECT_NE(write_digest, kTraceDigestSeed);
}

// Streams one class's arrivals through an on-disk v2 file and back.
// Memory stays bounded by one block at any length. The digest of the
// first 50,000 arrivals is pinned, so neither the class generator nor
// the codec can drift unnoticed.
TEST(TraceV2RoundTripTest, StreamedFileRoundTripIsBitIdentical) {
  constexpr std::uint64_t kPinnedRecords = 50000;
  constexpr std::uint64_t kPinnedDigest = 0xa7461baeb2050a38ULL;
  std::uint64_t n = kPinnedRecords;
  if (const char* env = std::getenv("UNICC_TRACE_ROUNDTRIP_TXNS")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) n = v;
  }
  ScenarioClass c = SampleClass(n, 4, 8, 0.5);
  c.rate = 1000;
  auto stream = OpenClass(c, /*num_items=*/100000, /*num_user_sites=*/8,
                          Rng(0x7ace));
  const std::string path = ::testing::TempDir() + "/unicc_roundtrip.uctc";
  auto writer = OpenTraceWriter(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::uint64_t write_digest = kTraceDigestSeed;
  Arrival a;
  while (stream->Next(&a)) {
    write_digest = FoldArrivalDigest(write_digest, a);
    ASSERT_TRUE((*writer)->Append(a).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  std::ifstream file(path, std::ios::binary);
  auto reader = TraceReader::FromStream(&file);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::uint64_t read_digest = kTraceDigestSeed;
  std::uint64_t pinned_prefix = 0;
  while ((*reader)->Next(&a)) {
    read_digest = FoldArrivalDigest(read_digest, a);
    if ((*reader)->records_read() == kPinnedRecords) {
      pinned_prefix = read_digest;
    }
  }
  std::remove(path.c_str());
  ASSERT_TRUE((*reader)->status().ok()) << (*reader)->status().ToString();
  EXPECT_EQ((*reader)->records_read(), n);
  EXPECT_EQ(read_digest, write_digest);
  if (n >= kPinnedRecords) {
    EXPECT_EQ(pinned_prefix, kPinnedDigest);
  }
}

}  // namespace
}  // namespace unicc
