// Per-copy implementation logs (the paper's "logs", Section 2): the order in
// which physical operations were implemented on each copy. The data sites
// report each implemented operation to a LogSink: the engine's online
// serializability checker consumes them as they happen, and an
// ImplementationLog keeps them all for ConflictGraphChecker.
//
// Implementation points follow Section 4.3: a 2PL/PA operation is
// implemented when its lock is released; a T/O operation when its lock turns
// into a semi-lock, or when it is released, whichever happens first.
#ifndef UNICC_STORAGE_LOG_H_
#define UNICC_STORAGE_LOG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace unicc {

// One implemented physical operation. `attempt` identifies the transaction
// incarnation so that records of aborted incarnations (possible for pure
// Basic T/O reads, which are implemented at grant time) can be filtered out
// before checking serializability of the committed set.
struct LogRecord {
  TxnId txn = 0;
  std::uint32_t attempt = 1;
  OpType op = OpType::kRead;
  SimTime when = 0;
  // Global sequence number assigned at append time; total order across all
  // copies for deterministic tie-breaking.
  std::uint64_t seq = 0;
};

// Receives implemented operations, in implementation order across all
// copies.
class LogSink {
 public:
  virtual ~LogSink() = default;

  // Incarnation `attempt` of `txn` implemented `op` on `copy` at `when`.
  virtual void Append(const CopyId& copy, TxnId txn, std::uint32_t attempt,
                      OpType op, SimTime when) = 0;
};

// Collects the logs of every physical copy in a run.
class ImplementationLog : public LogSink {
 public:
  // Appends an implemented operation on `copy`.
  void Append(const CopyId& copy, TxnId txn, std::uint32_t attempt, OpType op,
              SimTime when) override;

  // The log of one copy, in implementation order.
  const std::vector<LogRecord>& LogOf(const CopyId& copy) const;

  // All copies with at least one record.
  std::vector<CopyId> Copies() const;

  std::uint64_t TotalRecords() const { return next_seq_; }

  void Clear();

 private:
  std::unordered_map<CopyId, std::vector<LogRecord>> logs_;
  std::uint64_t next_seq_ = 0;
  static const std::vector<LogRecord> kEmpty;
};

}  // namespace unicc

#endif  // UNICC_STORAGE_LOG_H_
