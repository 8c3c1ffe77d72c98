// Workload trace record/replay: serialize a generated arrival schedule and
// load it back, so experiments can be re-run on the exact same workload
// across engine configurations or library versions.
//
// Two encodings live here:
//  - Text (editable, diffable), one record per line:
//      txn <id> <when_us> <home> <protocol> <compute_us> <backoff_interval>
//          r <item>... w <item>...
//  - CSV export (analysis-friendly, write-only): one row per transaction
//    with ';'-separated access sets, for spreadsheets/pandas.
//
// The binary format is the streaming columnar "UCTC" v2 in
// workload/trace_io.h; ReadFile sniffs its magic and routes v2 files
// through the streaming reader, so text and v2 load through one entry
// point.
#ifndef UNICC_WORKLOAD_TRACE_H_
#define UNICC_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "workload/stream.h"

namespace unicc {

class WorkloadTrace {
 public:
  // Serializes arrivals to the trace text format.
  static std::string Serialize(const std::vector<Arrival>& arrivals);

  // Parses a text trace; rejects malformed input.
  static StatusOr<std::vector<Arrival>> Parse(const std::string& text);

  // CSV export with a header row:
  //   txn_id,arrival_us,home,protocol,compute_us,backoff_interval,reads,writes
  // where reads/writes are ';'-joined item ids (empty cell when none).
  static std::string ExportCsv(const std::vector<Arrival>& arrivals);

  // Convenience file helpers. WriteFile emits text; ReadFile sniffs the
  // magic and accepts text or UCTC v2 (the latter via the streaming
  // reader). A retired UCTB v1 file is an InvalidArgument that says how
  // to convert it.
  static Status WriteFile(const std::string& path,
                          const std::vector<Arrival>& arrivals);
  static StatusOr<std::vector<Arrival>> ReadFile(const std::string& path);
};

}  // namespace unicc

#endif  // UNICC_WORKLOAD_TRACE_H_
