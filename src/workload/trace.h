// Workload trace record/replay: write an arrival schedule out and read it
// back, so experiments can be re-run on the exact same workload across
// engine configurations or library versions. Every format streams: a
// writer is an ArrivalSink taking one arrival at a time, a reader an
// ArrivalStream, and arrival times must be nondecreasing in both.
//
//  - Text (editable, diffable), one record per line; blank lines and
//    lines starting with '#' are skipped:
//      txn <id> <when_us> <home> <protocol> <compute_us> <backoff_interval>
//          r <item>... w <item>...
//  - CSV export (analysis-friendly, write-only): the header row
//      txn_id,arrival_us,home,protocol,compute_us,backoff_interval,
//      reads,writes
//    then one row per transaction, its access sets ';'-joined.
//  - UCTC v2, the streaming columnar binary (workload/trace_io.h).
//
// The openers own the format decisions: OpenTraceReader follows the
// file's leading bytes, OpenTraceWriter its name.
#ifndef UNICC_WORKLOAD_TRACE_H_
#define UNICC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "common/status.h"
#include "workload/stream.h"

namespace unicc {

enum class LineFormat : std::uint8_t { kText, kCsv };

// Writes one line per arrival, in `format`, into `sink`, which must
// outlive the writer (in-memory output, tests).
std::unique_ptr<ArrivalSink> MakeLineWriter(std::ostream* sink,
                                            LineFormat format);

// Parses a text trace from `in`, which must outlive the reader, one line
// per Next(). Malformed input, an invalid spec or an arrival earlier than
// the one before it ends the stream, and status() names the line.
std::unique_ptr<ArrivalStream> MakeTextTraceReader(std::istream* in);

// Opens a trace for replay in the format its leading bytes name: the
// UCTC v2 magic, else text. A retired UCTB v1 file is an InvalidArgument
// that says how to convert it.
StatusOr<std::unique_ptr<ArrivalStream>> OpenTraceReader(
    const std::string& path);

// Opens a trace for recording: text when `path` ends in .txt, UCTC v2
// otherwise.
StatusOr<std::unique_ptr<ArrivalSink>> OpenTraceWriter(
    const std::string& path);

// Opens a CSV export.
StatusOr<std::unique_ptr<ArrivalSink>> OpenCsvExport(const std::string& path);

}  // namespace unicc

#endif  // UNICC_WORKLOAD_TRACE_H_
