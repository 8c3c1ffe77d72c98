#include "workload/trace_io.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "txn/transaction.h"

namespace unicc {

namespace {

// Per-record bytes in the fixed columns: id 8 + when 8 + home 4 + proto 1
// + compute 8 + backoff 8 + read_end 4 + write_end 4.
constexpr std::uint64_t kFixedBytesPerRecord = 45;
constexpr std::uint64_t kBlockHeaderBytes = 12;  // count + n_read + n_write
constexpr std::uint64_t kFooterBytes = 12;       // zero count + total u64

void AppendLe(std::string* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t DecodeLe(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::uint64_t FoldArrivalDigest(std::uint64_t digest, const Arrival& a) {
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ULL;
    }
  };
  mix(a.when);
  mix(a.spec.id);
  mix(a.spec.home);
  mix(static_cast<std::uint64_t>(a.spec.protocol));
  mix(a.spec.compute_time);
  mix(a.spec.backoff_interval);
  mix(a.spec.read_set.size());
  for (ItemId item : a.spec.read_set) mix(item);
  mix(a.spec.write_set.size());
  for (ItemId item : a.spec.write_set) mix(item);
  return digest;
}

Status CheckAppend(const Arrival& a, std::uint64_t index, SimTime last_when) {
  if (index > 0 && a.when < last_when) {
    return Status::InvalidArgument(
        "trace arrivals must be in nondecreasing time order (record " +
        std::to_string(index) + ")");
  }
  if (Status s = a.spec.Validate(); !s.ok()) {
    return Status::InvalidArgument("trace record " + std::to_string(index) +
                                   ": " + s.message());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(std::unique_ptr<std::ostream> owned,
                         std::ostream* sink, Options options)
    : owned_(std::move(owned)), sink_(sink), options_(options) {
  if (options_.block_records == 0) options_.block_records = 1;
}

StatusOr<std::unique_ptr<TraceWriter>> TraceWriter::ToStream(
    std::ostream* sink, Options options, std::unique_ptr<std::ostream> owned) {
  UNICC_CHECK(sink != nullptr);
  auto writer = std::unique_ptr<TraceWriter>(
      new TraceWriter(std::move(owned), sink, options));
  std::string header;
  header.append(kTraceV2Magic, sizeof(kTraceV2Magic));
  AppendLe(&header, kTraceV2Version, 2);
  AppendLe(&header, writer->options_.block_records, 4);
  if (Status s = writer->Emit(header); !s.ok()) return s;
  return writer;
}

TraceWriter::~TraceWriter() {
  if (!finished_) Finish();  // best effort; errors observable via Finish()
}

Status TraceWriter::Emit(const std::string& bytes) {
  sink_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!sink_->good()) return Status::Internal("trace write failed");
  bytes_written_ += bytes.size();
  return Status::OK();
}

Status TraceWriter::Append(const Arrival& a) {
  if (finished_) {
    return Status::FailedPrecondition("TraceWriter already finished");
  }
  if (Status s = CheckAppend(a, records_, last_when_); !s.ok()) return s;
  last_when_ = a.when;
  AppendLe(&col_id_, a.spec.id, 8);
  AppendLe(&col_when_, a.when, 8);
  AppendLe(&col_home_, a.spec.home, 4);
  AppendLe(&col_proto_, static_cast<std::uint64_t>(a.spec.protocol), 1);
  AppendLe(&col_compute_, a.spec.compute_time, 8);
  AppendLe(&col_backoff_, a.spec.backoff_interval, 8);
  for (ItemId item : a.spec.read_set) AppendLe(&col_read_items_, item, 4);
  for (ItemId item : a.spec.write_set) AppendLe(&col_write_items_, item, 4);
  AppendLe(&col_read_end_, col_read_items_.size() / 4, 4);
  AppendLe(&col_write_end_, col_write_items_.size() / 4, 4);
  ++count_;
  ++records_;
  if (count_ >= options_.block_records) return FlushBlock();
  return Status::OK();
}

Status TraceWriter::FlushBlock() {
  if (count_ == 0) return Status::OK();
  std::string head;
  AppendLe(&head, count_, 4);
  AppendLe(&head, col_read_items_.size() / 4, 4);
  AppendLe(&head, col_write_items_.size() / 4, 4);
  Status s = Emit(head);
  for (std::string* col :
       {&col_id_, &col_when_, &col_home_, &col_proto_, &col_compute_,
        &col_backoff_, &col_read_end_, &col_write_end_, &col_read_items_,
        &col_write_items_}) {
    if (s.ok()) s = Emit(*col);
    col->clear();  // keeps capacity: steady-state appends don't reallocate
  }
  count_ = 0;
  return s;
}

Status TraceWriter::Finish() {
  if (finished_) return Status::OK();
  Status s = FlushBlock();
  std::string footer;
  AppendLe(&footer, 0, 4);
  AppendLe(&footer, records_, 8);
  if (s.ok()) s = Emit(footer);
  if (s.ok() && owned_ != nullptr) {
    owned_->flush();
    if (!owned_->good()) s = Status::Internal("trace flush failed");
  }
  finished_ = true;
  return s;
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(std::unique_ptr<std::istream> owned,
                         std::istream* in, std::uint64_t remaining)
    : owned_(std::move(owned)), in_(in), remaining_(remaining) {}

StatusOr<std::unique_ptr<TraceReader>> TraceReader::FromStream(
    std::istream* in, std::unique_ptr<std::istream> owned) {
  UNICC_CHECK(in != nullptr);
  // Size the input up front so per-block counts can be bounded against
  // the real remaining bytes before anything is allocated.
  in->seekg(0, std::ios::end);
  const std::streamoff size = in->tellg();
  in->seekg(0, std::ios::beg);
  if (size < 0 || !in->good()) {
    return Status::InvalidArgument("v2 trace: input is not seekable");
  }
  char header[10];
  if (static_cast<std::uint64_t>(size) < sizeof(header)) {
    return Status::InvalidArgument("v2 trace: truncated header");
  }
  in->read(header, sizeof(header));
  if (!in->good()) return Status::Internal("v2 trace: header read failed");
  if (std::memcmp(header, kTraceV2Magic, sizeof(kTraceV2Magic)) != 0) {
    return Status::InvalidArgument("v2 trace: bad magic");
  }
  const std::uint64_t version = DecodeLe(header + 4, 2);
  if (version != kTraceV2Version) {
    return Status::InvalidArgument("v2 trace: unsupported version " +
                                   std::to_string(version));
  }
  // header bytes 6..9 are the writer's block-records hint; readers size
  // their buffers from each block's own count instead of trusting it.
  return std::unique_ptr<TraceReader>(new TraceReader(
      std::move(owned), in, static_cast<std::uint64_t>(size) - sizeof(header)));
}

Status TraceReader::Corrupt(const std::string& what) {
  status_ = Status::InvalidArgument("v2 trace: " + what);
  done_ = true;
  block_.clear();
  pos_ = 0;
  return status_;
}

void TraceReader::ReadBlock() {
  block_.clear();
  pos_ = 0;
  if (remaining_ < kBlockHeaderBytes) {
    // Even the footer is a 4-byte count + 8-byte total.
    Corrupt("truncated: missing footer");
    return;
  }
  char head[12];
  in_->read(head, sizeof(head));
  if (!in_->good()) {
    Corrupt("block header read failed");
    return;
  }
  remaining_ -= sizeof(head);
  const std::uint64_t n = DecodeLe(head, 4);
  if (n == 0) {
    // Footer: the 8 bytes after the zero count are the total record count,
    // and nothing may follow.
    const std::uint64_t total = DecodeLe(head + 4, 8);
    if (total != records_read_) {
      Corrupt("footer record count " + std::to_string(total) +
              " != records read " + std::to_string(records_read_));
      return;
    }
    if (remaining_ != 0) {
      Corrupt("trailing bytes after footer");
      return;
    }
    done_ = true;  // clean end-of-trace; status_ stays OK
    return;
  }
  // n > 0: the 12 bytes read were count + n_read_items + n_write_items.
  const std::uint64_t n_read = DecodeLe(head + 4, 4);
  const std::uint64_t n_write = DecodeLe(head + 8, 4);
  const std::uint64_t payload =
      n * kFixedBytesPerRecord + 4 * (n_read + n_write);
  if (payload + kFooterBytes > remaining_) {
    // The block body plus at least a footer must fit in what's left; a
    // corrupt count cannot make us allocate past the real input size.
    Corrupt("truncated block (record count " + std::to_string(n) + ")");
    return;
  }
  scratch_.resize(payload);
  in_->read(scratch_.data(), static_cast<std::streamsize>(payload));
  if (!in_->good()) {
    Corrupt("block read failed");
    return;
  }
  remaining_ -= payload;
  if (Status s = DecodeBlock(static_cast<std::uint32_t>(n)); !s.ok()) return;
}

Status TraceReader::DecodeBlock(std::uint32_t n) {
  const char* p = scratch_.data();
  const char* ids = p;
  const char* whens = ids + 8 * static_cast<std::size_t>(n);
  const char* homes = whens + 8 * static_cast<std::size_t>(n);
  const char* protos = homes + 4 * static_cast<std::size_t>(n);
  const char* computes = protos + 1 * static_cast<std::size_t>(n);
  const char* backoffs = computes + 8 * static_cast<std::size_t>(n);
  const char* read_ends = backoffs + 8 * static_cast<std::size_t>(n);
  const char* write_ends = read_ends + 4 * static_cast<std::size_t>(n);
  const char* read_items = write_ends + 4 * static_cast<std::size_t>(n);
  const std::uint64_t n_read =
      (scratch_.size() - kFixedBytesPerRecord * n) / 4;  // reads + writes
  // Recover the split from the last offsets; validate the whole index.
  const std::uint64_t read_total = DecodeLe(read_ends + 4 * (n - 1), 4);
  const std::uint64_t write_total = DecodeLe(write_ends + 4 * (n - 1), 4);
  if (read_total + write_total != n_read) {
    return Corrupt("offset index does not cover the item columns");
  }
  const char* write_items = read_items + 4 * read_total;

  block_.reserve(n);
  std::uint64_t prev_read = 0, prev_write = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Arrival a;
    a.spec.id = DecodeLe(ids + 8 * i, 8);
    a.when = DecodeLe(whens + 8 * i, 8);
    a.spec.home = static_cast<SiteId>(DecodeLe(homes + 4 * i, 4));
    const std::uint64_t proto = DecodeLe(protos + i, 1);
    if (proto >= static_cast<std::uint64_t>(kNumProtocols)) {
      return Corrupt("record " + std::to_string(records_read_ + i) +
                     ": unknown protocol");
    }
    a.spec.protocol = static_cast<Protocol>(proto);
    a.spec.compute_time = DecodeLe(computes + 8 * i, 8);
    a.spec.backoff_interval = DecodeLe(backoffs + 8 * i, 8);
    const std::uint64_t read_end = DecodeLe(read_ends + 4 * i, 4);
    const std::uint64_t write_end = DecodeLe(write_ends + 4 * i, 4);
    if (read_end < prev_read || read_end > read_total ||
        write_end < prev_write || write_end > write_total) {
      return Corrupt("record " + std::to_string(records_read_ + i) +
                     ": offset index out of bounds");
    }
    a.spec.read_set.reserve(read_end - prev_read);
    for (std::uint64_t r = prev_read; r < read_end; ++r) {
      a.spec.read_set.push_back(
          static_cast<ItemId>(DecodeLe(read_items + 4 * r, 4)));
    }
    a.spec.write_set.reserve(write_end - prev_write);
    for (std::uint64_t w = prev_write; w < write_end; ++w) {
      a.spec.write_set.push_back(
          static_cast<ItemId>(DecodeLe(write_items + 4 * w, 4)));
    }
    prev_read = read_end;
    prev_write = write_end;
    if ((records_read_ + i > 0 || i > 0) && a.when < last_when_) {
      return Corrupt("record " + std::to_string(records_read_ + i) +
                     ": arrivals out of time order");
    }
    last_when_ = a.when;
    if (Status s = a.spec.Validate(); !s.ok()) {
      return Corrupt("record " + std::to_string(records_read_ + i) + ": " +
                     s.message());
    }
    block_.push_back(std::move(a));
  }
  return Status::OK();
}

bool TraceReader::Next(Arrival* out) {
  while (pos_ == block_.size()) {
    if (done_) return false;
    ReadBlock();
    if (done_ && pos_ == block_.size()) return false;
  }
  *out = std::move(block_[pos_++]);
  ++records_read_;
  return true;
}

}  // namespace unicc
