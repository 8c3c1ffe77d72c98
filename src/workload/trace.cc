#include "workload/trace.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parse.h"
#include "workload/trace_io.h"

namespace unicc {

namespace {

// Appends `items`, each after `sep`; with `lead` false, the first
// without it.
void AppendItems(std::string* out, const std::vector<ItemId>& items,
                 char sep, bool lead) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0 || lead) *out += sep;
    *out += std::to_string(items[i]);
  }
}

void FormatText(const Arrival& a, std::string* line) {
  char head[160];
  std::snprintf(head, sizeof(head), "txn %llu %llu %u %s %llu %llu r",
                static_cast<unsigned long long>(a.spec.id),
                static_cast<unsigned long long>(a.when), a.spec.home,
                ProtocolToken(a.spec.protocol).data(),
                static_cast<unsigned long long>(a.spec.compute_time),
                static_cast<unsigned long long>(a.spec.backoff_interval));
  *line = head;
  AppendItems(line, a.spec.read_set, ' ', true);
  *line += " w";
  AppendItems(line, a.spec.write_set, ' ', true);
  *line += '\n';
}

void FormatCsv(const Arrival& a, std::string* line) {
  *line = std::to_string(a.spec.id);
  *line += ',';
  *line += std::to_string(a.when);
  *line += ',';
  *line += std::to_string(a.spec.home);
  *line += ',';
  *line += ProtocolToken(a.spec.protocol);
  *line += ',';
  *line += std::to_string(a.spec.compute_time);
  *line += ',';
  *line += std::to_string(a.spec.backoff_interval);
  *line += ',';
  AppendItems(line, a.spec.read_set, ';', false);
  *line += ',';
  AppendItems(line, a.spec.write_set, ';', false);
  *line += '\n';
}

class LineWriter final : public ArrivalSink {
 public:
  // `owned`, when set, is the file behind `sink`.
  LineWriter(std::ostream* sink, LineFormat format,
             std::unique_ptr<std::ostream> owned = nullptr)
      : owned_(std::move(owned)), sink_(sink), format_(format) {
    if (format_ == LineFormat::kCsv) {
      *sink_ << "txn_id,arrival_us,home,protocol,compute_us,backoff_interval,"
                "reads,writes\n";
    }
  }
  Status Append(const Arrival& a) override {
    if (finished_) {
      return Status::FailedPrecondition("trace writer already finished");
    }
    if (Status s = CheckAppend(a, records_, last_when_); !s.ok()) return s;
    last_when_ = a.when;
    ++records_;
    (format_ == LineFormat::kText ? FormatText : FormatCsv)(a, &line_);
    sink_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
    return Healthy();
  }

  Status Finish() override {
    if (finished_) return Status::OK();
    finished_ = true;
    sink_->flush();
    return Healthy();
  }

 private:
  Status Healthy() const {
    return sink_->good() ? Status::OK() : Status::Internal("trace write failed");
  }

  std::unique_ptr<std::ostream> owned_;
  std::ostream* sink_;
  LineFormat format_;
  bool finished_ = false;
  std::uint64_t records_ = 0;
  SimTime last_when_ = 0;
  std::string line_;  // reused for every record
};

class TextTraceReader final : public ArrivalStream {
 public:
  // `owned`, when set, is the file behind `in`.
  explicit TextTraceReader(std::istream* in,
                           std::unique_ptr<std::istream> owned = nullptr)
      : owned_(std::move(owned)), in_(in) {}

  bool Next(Arrival* out) override {
    while (status_.ok() && std::getline(*in_, line_)) {
      ++lineno_;
      if (line_.empty() || line_[0] == '#') continue;
      Arrival a;
      if (Status s = Parse(&a); !s.ok()) {
        status_ = Status::InvalidArgument(
            "trace line " + std::to_string(lineno_) + ": " + s.message());
        return false;
      }
      last_when_ = a.when;
      *out = std::move(a);
      return true;
    }
    return false;
  }

  Status status() const override { return status_; }

 private:
  Status Parse(Arrival* a);  // the record on line_

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  Status status_;
  std::size_t lineno_ = 0;
  SimTime last_when_ = 0;
  std::string line_;
  std::istringstream fields_;  // reused for every line
};

Status TextTraceReader::Parse(Arrival* a) {
  fields_.clear();
  fields_.str(line_);
  std::istringstream& in = fields_;
  std::string tag, proto_token;
  if (!(in >> tag >> a->spec.id >> a->when >> a->spec.home >> proto_token >>
        a->spec.compute_time >> a->spec.backoff_interval) ||
      tag != "txn") {
    return Status::InvalidArgument("malformed header");
  }
  if (!ParseProtocolToken(proto_token, &a->spec.protocol)) {
    return Status::InvalidArgument("unknown protocol");
  }
  std::string section;
  if (!(in >> section) || section != "r") {
    return Status::InvalidArgument("expected read section");
  }
  std::string token;
  bool in_writes = false;
  while (in >> token) {
    if (token == "w") {
      if (in_writes) return Status::InvalidArgument("duplicate write section");
      in_writes = true;
      continue;
    }
    // Strict: digits only, and the value must fit ItemId (std::stoul
    // would take "-1" and silently truncate 2^32 to 0).
    ItemId item = 0;
    if (!ParseNumber(token, &item)) {
      return Status::InvalidArgument("bad item '" + token + "'");
    }
    (in_writes ? a->spec.write_set : a->spec.read_set).push_back(item);
  }
  if (!in_writes) return Status::InvalidArgument("missing write section");
  if (a->when < last_when_) {
    return Status::InvalidArgument(
        "arrivals out of time order (" + std::to_string(a->when) +
        " us after " + std::to_string(last_when_) + " us)");
  }
  return a->spec.Validate();
}

// A reader or writer as the interface its opener returns.
template <typename Base, typename T>
StatusOr<std::unique_ptr<Base>> Upcast(StatusOr<std::unique_ptr<T>> opened) {
  if (!opened.ok()) return opened.status();
  return std::unique_ptr<Base>(std::move(opened).value());
}

// `path` opened for writing: lines in `format`, or UCTC v2 without one.
StatusOr<std::unique_ptr<ArrivalSink>> OpenWriter(
    const std::string& path, std::optional<LineFormat> format) {
  auto file = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::trunc);
  if (!*file) return Status::Internal("cannot open " + path);
  std::ostream* sink = file.get();
  if (!format.has_value()) {
    return Upcast<ArrivalSink>(TraceWriter::ToStream(sink, {}, std::move(file)));
  }
  return std::unique_ptr<ArrivalSink>(
      std::make_unique<LineWriter>(sink, *format, std::move(file)));
}

}  // namespace

std::unique_ptr<ArrivalSink> MakeLineWriter(std::ostream* sink,
                                            LineFormat format) {
  UNICC_CHECK(sink != nullptr);
  return std::make_unique<LineWriter>(sink, format);
}

std::unique_ptr<ArrivalStream> MakeTextTraceReader(std::istream* in) {
  UNICC_CHECK(in != nullptr);
  return std::make_unique<TextTraceReader>(in);
}

StatusOr<std::unique_ptr<ArrivalStream>> OpenTraceReader(
    const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) return Status::NotFound("cannot open " + path);
  char magic[4] = {};
  file->read(magic, sizeof(magic));
  const std::string_view head(magic, static_cast<std::size_t>(file->gcount()));
  if (head == "UCTB") {
    return Status::InvalidArgument(
        "UCTB v1 binary traces are retired: replay this one with an older "
        "unicc_sim and record it again (UCTC v2, or text for a .txt name)");
  }
  file->clear();
  file->seekg(0);
  std::istream* in = file.get();
  if (head == std::string_view(kTraceV2Magic, sizeof(kTraceV2Magic))) {
    return Upcast<ArrivalStream>(TraceReader::FromStream(in, std::move(file)));
  }
  return std::unique_ptr<ArrivalStream>(
      std::make_unique<TextTraceReader>(in, std::move(file)));
}

StatusOr<std::unique_ptr<ArrivalSink>> OpenTraceWriter(
    const std::string& path) {
  if (path.ends_with(".txt")) return OpenWriter(path, LineFormat::kText);
  return OpenWriter(path, std::nullopt);
}

StatusOr<std::unique_ptr<ArrivalSink>> OpenCsvExport(const std::string& path) {
  return OpenWriter(path, LineFormat::kCsv);
}

}  // namespace unicc
