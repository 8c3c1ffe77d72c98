// Queue-entry representation shared by the queue managers: one entry per
// request in a data queue, carrying its precedence, PAM mark
// (accepted/blocked) and grant state.
#ifndef UNICC_CC_REQUEST_H_
#define UNICC_CC_REQUEST_H_

#include <cstdint>
#include <string>

#include "cc/lock.h"
#include "cc/precedence.h"
#include "common/types.h"
#include "net/message.h"

namespace unicc {

// PAM mark of a queue entry (paper, step 2(c) of the PA algorithm).
enum class EntryMark : std::uint8_t {
  kAccepted = 0,
  kBlocked = 1,  // PA request awaiting its final timestamp TS'_i
};

struct QueueEntry {
  TxnId txn = 0;
  Attempt attempt = 0;
  SiteId reply_to = 0;
  OpType op = OpType::kRead;
  Protocol proto = Protocol::kTwoPhaseLocking;
  Precedence prec;
  EntryMark mark = EntryMark::kAccepted;
  // PA grant confirmation (docs/architecture.md): a PA entry of a
  // multi-request transaction is grantable only after its final timestamp
  // is confirmed with FinalTs; granting earlier can deadlock two PA
  // transactions when a back-off elsewhere raises an already-granted
  // request over a waiter.
  // Non-PA entries and single-request PA transactions are born confirmed.
  bool confirmed = true;

  // --- grant state -----------------------------------------------------
  bool granted = false;
  LockKind lock = LockKind::kReadLock;
  // False while the lock is pre-scheduled; flips to true (with a second
  // grant message) once every earlier conflicting lock is released.
  bool normal = true;
  // Per-copy grant order, used to decide "granted earlier" in the
  // pre-scheduled rule.
  std::uint64_t grant_seq = 0;

  // --- commit bookkeeping ----------------------------------------------
  // Set when the operation has been appended to the implementation log
  // (semi-lock transform logs before release).
  bool logged = false;
  // Pending write value carried by SemiTransform/Release.
  bool has_write_value = false;
  std::uint64_t write_value = 0;

  std::string ToString() const;
};

}  // namespace unicc

#endif  // UNICC_CC_REQUEST_H_
