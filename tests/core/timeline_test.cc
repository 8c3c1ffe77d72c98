// TimelineRecorder window-edge semantics and export formats: half-open
// windows (a commit exactly on a boundary opens the next window), interior
// empty windows materialized in the export, per-protocol bucketing.
#include "metrics/timeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

namespace unicc {
namespace {

TxnResult At(SimTime commit, Duration system_time,
             Protocol p = Protocol::kTwoPhaseLocking) {
  TxnResult r;
  r.id = 1;
  r.protocol = p;
  r.arrival = commit - system_time;
  r.commit = commit;
  return r;
}

TEST(TimelineTest, BucketsByCommitTime) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(100, 50));
  tl.OnCommit(At(999, 50));
  tl.OnCommit(At(2500, 50));
  ASSERT_EQ(tl.NumWindows(), 3u);
  EXPECT_EQ(tl.Window(0).committed, 2u);
  EXPECT_EQ(tl.Window(1).committed, 0u);  // interior empty window exists
  EXPECT_EQ(tl.Window(2).committed, 1u);
  EXPECT_EQ(tl.Window(1).start, 1000u);
}

TEST(TimelineTest, CommitExactlyOnBoundaryOpensTheNextWindow) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(1000, 10));  // [1000, 2000), not [0, 1000)
  ASSERT_EQ(tl.NumWindows(), 2u);
  EXPECT_EQ(tl.Window(0).committed, 0u);
  EXPECT_EQ(tl.Window(1).committed, 1u);
  tl.OnCommit(At(0, 0));  // t = 0 lands in window 0
  EXPECT_EQ(tl.Window(0).committed, 1u);
}

TEST(TimelineTest, PerProtocolCountsAndRestarts) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(10, 5, Protocol::kTwoPhaseLocking));
  tl.OnCommit(At(20, 5, Protocol::kTimestampOrdering));
  tl.OnCommit(At(30, 5, Protocol::kTimestampOrdering));
  tl.OnRestart(40, Protocol::kPrecedenceAgreement);
  tl.OnRestart(1500, Protocol::kTwoPhaseLocking);
  ASSERT_EQ(tl.NumWindows(), 2u);
  EXPECT_EQ(tl.Window(0).committed_by_proto[0], 1u);
  EXPECT_EQ(tl.Window(0).committed_by_proto[1], 2u);
  EXPECT_EQ(tl.Window(0).restarts_by_proto[2], 1u);
  EXPECT_EQ(tl.Window(1).restarts_by_proto[0], 1u);
  EXPECT_EQ(tl.Window(1).committed, 0u);
}

TEST(TimelineTest, SystemTimeStatsPerWindow) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(100, 1000));
  tl.OnCommit(At(200, 3000));
  EXPECT_DOUBLE_EQ(tl.Window(0).system_time.MeanMs(), 2.0);
  EXPECT_NEAR(tl.Window(0).system_time.PercentileMs(99), 3.0, 0.1);
}

TEST(TimelineTest, CsvHasHeaderAndOneRowPerWindow) {
  TimelineRecorder tl(2000 * kMillisecond);
  tl.OnCommit(At(100 * kMillisecond, 50));
  tl.OnCommit(At(4100 * kMillisecond, 50));
  const std::string csv = tl.ExportCsv();
  // Header + 3 windows (the middle one empty).
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(csv.find("window,start_ms,end_ms,committed,throughput_tps,"
                     "mean_s_ms,p99_s_ms"),
            std::string::npos);
  EXPECT_NE(csv.find("1,2000.000,4000.000,0,"), std::string::npos);
}

TEST(TimelineTest, JsonExportsEveryWindow) {
  TimelineRecorder tl(500);
  tl.OnCommit(At(100, 50));
  tl.OnCommit(At(1400, 50));
  const std::string json = tl.ExportJson();
  EXPECT_NE(json.find("\"window_ms\": 0.500"), std::string::npos);
  EXPECT_NE(json.find("\"windows\": ["), std::string::npos);
  EXPECT_NE(json.find("\"committed_by_protocol\": [1, 0, 0]"),
            std::string::npos);
  // Three windows; the middle one is an explicit zero row.
  EXPECT_NE(json.find("{\"window\": 1, \"start_ms\": 0.500, "
                      "\"end_ms\": 1.000, \"committed\": 0"),
            std::string::npos);
}

TEST(TimelineTest, FinalWindowClampsToTheRecordedEnd) {
  TimelineRecorder tl(1000 * kMillisecond);
  tl.OnCommit(At(500 * kMillisecond, 50));
  tl.OnCommit(At(2200 * kMillisecond, 50));
  EXPECT_EQ(tl.end(), 2200 * kMillisecond);
  EXPECT_EQ(tl.WindowEnd(0), 1000 * kMillisecond);  // interior: full length
  EXPECT_EQ(tl.WindowEnd(2), 2200 * kMillisecond);  // final: run end
  // The one commit is spread over the 200ms the final window actually
  // spans (5 tps), not over the 800ms that never ran.
  const std::string csv = tl.ExportCsv();
  EXPECT_NE(csv.find("2,2000.000,2200.000,1,5.000"), std::string::npos);
  const std::string json = tl.ExportJson();
  EXPECT_NE(json.find("\"end_ms\": 2200.000, \"committed\": 1, "
                      "\"throughput_tps\": 5.000"),
            std::string::npos);
}

TEST(TimelineTest, EventAtTheWindowStartStillSpansAMicrosecond) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(1000, 10));
  // end == the window start; the clamp must not produce an empty interval
  // (and with it an infinite throughput).
  EXPECT_EQ(tl.WindowEnd(1), 1001u);
}

TEST(TimelineTest, FarFutureEventIsBoundedByMaxWindows) {
  // One corrupt or far-future timestamp must not make the recorder
  // allocate t/window windows; it lands in the last representable window
  // and still moves the recorded end of run.
  TimelineRecorder tl(1);
  tl.OnRestart(std::numeric_limits<SimTime>::max() / 2,
               Protocol::kTimestampOrdering);
  ASSERT_EQ(tl.NumWindows(), TimelineRecorder::kMaxWindows);
  EXPECT_EQ(tl.Window(tl.NumWindows() - 1).restarts_by_proto[1], 1u);
  EXPECT_EQ(tl.end(), std::numeric_limits<SimTime>::max() / 2);
}

TEST(TimelineTest, StreamWritersMatchExportWrappers) {
  TimelineRecorder tl(1000);
  tl.OnCommit(At(100, 50));
  tl.OnRestart(1500, Protocol::kPrecedenceAgreement);
  std::ostringstream csv, json;
  tl.WriteCsv(csv);
  tl.WriteJson(json);
  EXPECT_EQ(csv.str(), tl.ExportCsv());
  EXPECT_EQ(json.str(), tl.ExportJson());
}

TEST(TimelineTest, EmptyRecorderExportsHeaderOnly) {
  TimelineRecorder tl(1000);
  EXPECT_EQ(tl.NumWindows(), 0u);
  const std::string csv = tl.ExportCsv();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u);
}

}  // namespace
}  // namespace unicc
