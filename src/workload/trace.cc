#include "workload/trace.h"

#include <cstdio>
#include <fstream>
#include <ios>
#include <sstream>
#include <string_view>

#include "common/parse.h"
#include "workload/trace_io.h"

namespace unicc {

std::string WorkloadTrace::Serialize(const std::vector<Arrival>& arrivals) {
  std::string out;
  for (const auto& a : arrivals) {
    char head[160];
    std::snprintf(head, sizeof(head), "txn %llu %llu %u %s %llu %llu",
                  static_cast<unsigned long long>(a.spec.id),
                  static_cast<unsigned long long>(a.when), a.spec.home,
                  ProtocolToken(a.spec.protocol).data(),
                  static_cast<unsigned long long>(a.spec.compute_time),
                  static_cast<unsigned long long>(a.spec.backoff_interval));
    out += head;
    out += " r";
    for (ItemId item : a.spec.read_set) {
      out += ' ';
      out += std::to_string(item);
    }
    out += " w";
    for (ItemId item : a.spec.write_set) {
      out += ' ';
      out += std::to_string(item);
    }
    out += "\n";
  }
  return out;
}

StatusOr<std::vector<Arrival>> WorkloadTrace::Parse(const std::string& text) {
  std::vector<Arrival> arrivals;
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string tag, proto_token;
    Arrival a;
    unsigned long long id = 0, when = 0, compute = 0, interval = 0;
    if (!(in >> tag >> id >> when >> a.spec.home >> proto_token >> compute >>
          interval) ||
        tag != "txn") {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(lineno) +
                                     ": malformed header");
    }
    if (!ParseProtocolToken(proto_token, &a.spec.protocol)) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(lineno) +
                                     ": unknown protocol");
    }
    a.spec.id = id;
    a.when = when;
    a.spec.compute_time = compute;
    a.spec.backoff_interval = interval;
    std::string section;
    if (!(in >> section) || section != "r") {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(lineno) +
                                     ": expected read section");
    }
    std::string token;
    bool in_writes = false;
    while (in >> token) {
      if (token == "w") {
        if (in_writes) {
          return Status::InvalidArgument("trace line " +
                                         std::to_string(lineno) +
                                         ": duplicate write section");
        }
        in_writes = true;
        continue;
      }
      // Strict: digits only, and the value must fit ItemId (std::stoul
      // would take "-1" and silently truncate 2^32 to 0).
      ItemId item = 0;
      if (!ParseNumber(token, &item)) {
        return Status::InvalidArgument("trace line " +
                                       std::to_string(lineno) +
                                       ": bad item '" + token + "'");
      }
      if (in_writes) {
        a.spec.write_set.push_back(item);
      } else {
        a.spec.read_set.push_back(item);
      }
    }
    if (!in_writes) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(lineno) +
                                     ": missing write section");
    }
    if (Status s = a.spec.Validate(); !s.ok()) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(lineno) + ": " +
                                     s.message());
    }
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

std::string WorkloadTrace::ExportCsv(const std::vector<Arrival>& arrivals) {
  std::string out =
      "txn_id,arrival_us,home,protocol,compute_us,backoff_interval,"
      "reads,writes\n";
  auto join = [](const std::vector<ItemId>& items) {
    std::string cell;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) cell += ';';
      cell += std::to_string(items[i]);
    }
    return cell;
  };
  for (const auto& a : arrivals) {
    out += std::to_string(a.spec.id);
    out += ',';
    out += std::to_string(a.when);
    out += ',';
    out += std::to_string(a.spec.home);
    out += ',';
    out += ProtocolToken(a.spec.protocol);
    out += ',';
    out += std::to_string(a.spec.compute_time);
    out += ',';
    out += std::to_string(a.spec.backoff_interval);
    out += ',';
    out += join(a.spec.read_set);
    out += ',';
    out += join(a.spec.write_set);
    out += '\n';
  }
  return out;
}

Status WorkloadTrace::WriteFile(const std::string& path,
                                const std::vector<Arrival>& arrivals) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path);
  out << Serialize(arrivals);
  return out.good() ? Status::OK() : Status::Internal("write failed");
}

StatusOr<std::vector<Arrival>> WorkloadTrace::ReadFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  // Sniff the magic first: v2 traces stream block-by-block through
  // TraceReader and must not be loaded whole.
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  const std::streamsize sniffed = in.gcount();
  if (LooksLikeTraceV2(magic, static_cast<std::size_t>(sniffed))) {
    return ReadTraceV2File(path);
  }
  if (std::string_view(magic, static_cast<std::size_t>(sniffed)) == "UCTB") {
    return Status::InvalidArgument(
        "UCTB v1 binary traces are retired: replay this one with an older "
        "unicc_sim and record it again (UCTC v2, or text for a .txt name)");
  }
  // Text: read once straight into the parse buffer, with no staging copy
  // that would double peak RSS on large files.
  in.clear();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat " + path);
  in.seekg(0, std::ios::beg);
  std::string content;
  content.resize(static_cast<std::size_t>(size));
  in.read(content.data(), size);
  if (in.gcount() != size) return Status::Internal("read failed: " + path);
  return Parse(content);
}

}  // namespace unicc
