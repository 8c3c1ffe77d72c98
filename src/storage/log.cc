#include "storage/log.h"

namespace unicc {

const std::vector<LogRecord> ImplementationLog::kEmpty;

void ImplementationLog::Append(const CopyId& copy, TxnId txn,
                               std::uint32_t attempt, OpType op,
                               SimTime when) {
  logs_[copy].push_back(LogRecord{txn, attempt, op, when, next_seq_++});
}

const std::vector<LogRecord>& ImplementationLog::LogOf(
    const CopyId& copy) const {
  auto it = logs_.find(copy);
  return it == logs_.end() ? kEmpty : it->second;
}

std::vector<CopyId> ImplementationLog::Copies() const {
  std::vector<CopyId> out;
  out.reserve(logs_.size());
  for (const auto& [copy, log] : logs_) out.push_back(copy);
  return out;
}

void ImplementationLog::Clear() {
  logs_.clear();
  next_seq_ = 0;
}

}  // namespace unicc
