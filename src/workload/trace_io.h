// Streaming columnar trace I/O: the UCTC v2 binary trace format.
//
// Recording or replaying a billion-event open-system run must not cost
// O(run) memory, so UCTC v2 streams: arrivals are buffered into
// fixed-capacity blocks and each block is written as contiguous
// little-endian *columns*, so the writer holds at most one block, the
// reader decodes one block at a time, and a scan touches each column as a
// straight memcpy-friendly run of bytes. The editable text format, and
// the openers that pick a format by file name or leading bytes, live in
// workload/trace.h.
//
// File layout (all integers little-endian):
//
//   header  : magic "UCTC" (4) | version u16 (= 2) | block_records u32
//             (the writer's records-per-block hint; readers don't need it)
//   block*  : record_count u32 (> 0) | n_read_items u32 | n_write_items u32
//             then the column runs, each contiguous for the whole block:
//               id        u64 x n      when      u64 x n
//               home      u32 x n      proto     u8  x n
//               compute   u64 x n      backoff   u64 x n
//               read_end  u32 x n      write_end u32 x n
//               read_items  u32 x n_read_items
//               write_items u32 x n_write_items
//             read_end/write_end are the block-local offset index:
//             cumulative item counts, so record i's reads are the slice
//             [read_end[i-1], read_end[i]) of the read_items column.
//   footer  : record_count u32 (= 0) | total_records u64
//
// The zero-count footer makes truncation detectable at block granularity
// (a file that ends after a block but before the footer is rejected), the
// offset index is validated against the item-column lengths, and arrival
// times must be nondecreasing — the reader is an ArrivalStream and feeds
// streaming admission directly.
#ifndef UNICC_WORKLOAD_TRACE_IO_H_
#define UNICC_WORKLOAD_TRACE_IO_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/stream.h"

namespace unicc {

// The 4-byte magic opening every UCTC v2 trace file.
inline constexpr char kTraceV2Magic[4] = {'U', 'C', 'T', 'C'};
inline constexpr std::uint16_t kTraceV2Version = 2;

// Appends one arrival's deterministic fields into an FNV-1a digest. Seed
// with kTraceDigestSeed and fold every arrival in order; writer-side and
// reader-side digests must match after a round trip.
inline constexpr std::uint64_t kTraceDigestSeed = 1469598103934665603ULL;
std::uint64_t FoldArrivalDigest(std::uint64_t digest, const Arrival& a);

// What every trace writer checks before taking `a` as its record number
// `index`: a valid spec, and no arrival earlier than the last one's
// `last_when`.
Status CheckAppend(const Arrival& a, std::uint64_t index, SimTime last_when);

// Records buffered per block by default; ~180KB of column builders for
// typical read/write set sizes.
inline constexpr std::uint32_t kDefaultBlockRecords = 4096;

struct TraceWriterOptions {
  // Records buffered per block. Larger blocks amortize the per-block
  // header and offset index; smaller blocks bound writer memory harder.
  std::uint32_t block_records = kDefaultBlockRecords;
};

// Bounded-memory block writer: Append() buffers into column builders and
// flushes a complete block to the sink; Finish() flushes the partial
// block and the footer. Peak memory is one block regardless of trace
// length. Arrival times must be nondecreasing (the ArrivalStream
// contract); an out-of-order append fails with a Status.
class TraceWriter final : public ArrivalSink {
 public:
  using Options = TraceWriterOptions;

  // Writes the file header into `sink`, which must outlive the writer
  // unless `owned` holds it (OpenTraceWriter's file).
  static StatusOr<std::unique_ptr<TraceWriter>> ToStream(
      std::ostream* sink, Options options = {},
      std::unique_ptr<std::ostream> owned = nullptr);

  // A writer destroyed before Finish() is discarded: its buffered block
  // and the footer are never written, so the trace reads back as
  // truncated rather than as a complete, shorter one.
  ~TraceWriter() override = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  Status Append(const Arrival& a) override;
  // Flushes the buffered partial block and the footer. Idempotent; no
  // Append may follow.
  Status Finish() override;

  // Records appended so far (flushed or buffered).
  std::uint64_t records() const { return records_; }
  // Bytes already emitted to the sink (excludes the buffered block).
  std::uint64_t bytes_written() const { return bytes_written_; }
  // Records in the not-yet-flushed block; never exceeds block_records.
  std::uint32_t buffered() const { return count_; }

 private:
  TraceWriter(std::unique_ptr<std::ostream> owned, std::ostream* sink,
              Options options);

  Status FlushBlock();
  Status Emit(const std::string& bytes);

  std::unique_ptr<std::ostream> owned_;  // null for a caller-owned sink
  std::ostream* sink_;
  Options options_;
  bool finished_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
  SimTime last_when_ = 0;

  // One block of column builders.
  std::uint32_t count_ = 0;
  std::string col_id_, col_when_, col_home_, col_proto_;
  std::string col_compute_, col_backoff_;
  std::string col_read_end_, col_write_end_;
  std::string col_read_items_, col_write_items_;
};

// Sequential block decoder. Implements ArrivalStream, so a v2 trace file
// replays straight into the engine's streaming admission without ever
// materializing the run; memory is bounded by one decoded block. On
// corrupt input Next() returns false and status() carries the error —
// always check status() after a stream is exhausted.
class TraceReader final : public ArrivalStream {
 public:
  // Validates the file header of the seekable stream `in`, which must
  // outlive the reader unless `owned` holds it (OpenTraceReader's file).
  static StatusOr<std::unique_ptr<TraceReader>> FromStream(
      std::istream* in, std::unique_ptr<std::istream> owned = nullptr);

  bool Next(Arrival* out) override;

  // OK while healthy (including after a clean end-of-trace); the decode
  // error after Next() returned false on corrupt input.
  Status status() const override { return status_; }
  std::uint64_t records_read() const { return records_read_; }
  // Arrivals decoded but not yet served; bounded by the writer's block
  // size (exposed so tests can pin the bounded-memory property).
  std::size_t buffered() const { return block_.size() - pos_; }

 private:
  TraceReader(std::unique_ptr<std::istream> owned, std::istream* in,
              std::uint64_t remaining);

  // Decodes the next block into block_, or marks end-of-trace/corruption.
  void ReadBlock();
  Status DecodeBlock(std::uint32_t n);
  Status Corrupt(const std::string& what);

  std::unique_ptr<std::istream> owned_;  // null for a caller-owned stream
  std::istream* in_;
  std::uint64_t remaining_ = 0;  // bytes left after the current position
  bool done_ = false;            // clean footer or error seen
  Status status_;
  std::uint64_t records_read_ = 0;
  SimTime last_when_ = 0;

  std::vector<Arrival> block_;
  std::size_t pos_ = 0;
  std::string scratch_;  // raw bytes of the block being decoded
};

}  // namespace unicc

#endif  // UNICC_WORKLOAD_TRACE_IO_H_
