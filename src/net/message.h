// Wire messages exchanged between request issuers (RIs), data queue managers
// (QMs) and the deadlock detector. The set mirrors the paper's protocol
// steps: request with timestamp tuple, grant, back-off offer (TS'ij), final
// timestamp (TS'i), reject (Basic T/O), lock release, semi-lock transform,
// abort, plus deadlock-detection traffic.
#ifndef UNICC_NET_MESSAGE_H_
#define UNICC_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"

namespace unicc {

// Attempt (incarnation) counter of a transaction; restarts bump it so stale
// messages from an aborted incarnation can be discarded.
using Attempt = std::uint32_t;

// A directed wait-for edge: `waiter` cannot proceed until `holder` releases.
// `holder_home` and `holder_proto` are copied from the holder's queue
// entry: the detectors send victims and probes to the home site and apply
// the victim rule to the protocol.
struct WaitEdge {
  TxnId waiter = 0;
  TxnId holder = 0;
  SiteId holder_home = 0;
  Protocol holder_proto = Protocol::kTwoPhaseLocking;

  friend bool operator==(const WaitEdge&, const WaitEdge&) = default;
};

namespace msg {

// RI -> QM: a read/write request plus the timestamp tuple Q_i = (TS_i,
// INT_i) (paper step 1(b)). For 2PL requests `ts` is ignored by the QM
// (assignment happens at the queue); it still carries the issuer timestamp
// for diagnostics.
struct CcRequest {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  OpType op = OpType::kRead;
  Protocol proto = Protocol::kTwoPhaseLocking;
  Timestamp ts = 0;
  Timestamp backoff_interval = 0;  // INT_i, used by PA only
  // Total physical requests of this transaction. PA requests of
  // single-request transactions may be granted before timestamp
  // confirmation (they cannot deadlock); all others await the FinalTs
  // confirmation round (see docs/architecture.md, "PA grant
  // confirmation").
  std::uint32_t txn_requests = 1;
  SiteId reply_to = 0;
};

// QM -> RI: lock grant. `normal` distinguishes normal from pre-scheduled
// grants in the unified semi-lock protocol (Section 4.2 rule (v)); pure
// backends always send normal grants. Reads carry the value read.
struct Grant {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  bool normal = true;
  bool has_value = false;
  std::uint64_t value = 0;
};

// QM -> RI: back-off offer TS'ij for a PA request that arrived too late
// (paper step 2(c) "blocked" branch).
struct Backoff {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  Timestamp new_ts = 0;
};

// QM -> RI: a PA request was accepted at its proposed timestamp; the
// request issuer counts these toward negotiation completion and then
// confirms with FinalTs. (Soundness addition over the paper's step 2(c);
// see docs/architecture.md, "PA grant confirmation".)
struct PaAccept {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
};

// RI -> QM: the agreed final timestamp TS'i = max_j TS'ij (paper step 1(e)).
struct FinalTs {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  Timestamp final_ts = 0;
};

// QM -> RI: Basic T/O rejection; the transaction restarts with a fresh
// timestamp.
struct Reject {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
};

// RI -> QM: lock release at commit; writes carry the value to install.
struct Release {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  bool has_write = false;
  std::uint64_t write_value = 0;
};

// RI -> QM: a committed T/O transaction that held pre-scheduled locks
// transforms its locks into semi-locks (RL -> SRL, WL -> SWL); writes are
// installed now (the operation is "implemented" at this point per the
// paper's Section 4.3 definition).
struct SemiTransform {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
  bool has_write = false;
  std::uint64_t write_value = 0;
};

// RI -> QM: drop any queued request / granted lock of this incarnation.
struct AbortTxn {
  TxnId txn = 0;
  Attempt attempt = 0;
  CopyId copy;
};

// Detector -> QM: ask for the local wait-for edges.
struct WfgSnapshotRequest {
  std::uint64_t round = 0;
};

// QM -> detector: local wait-for edges.
struct WfgSnapshotReply {
  std::uint64_t round = 0;
  std::vector<WaitEdge> edges;
};

// Detector -> RI: the transaction was chosen as a deadlock victim.
struct Victim {
  TxnId txn = 0;
};

// Edge-chasing deadlock probe (Chandy-Misra-Haas style). `target` is the
// transaction the probe is currently visiting.
struct Probe {
  TxnId initiator = 0;
  Attempt initiator_attempt = 0;
  TxnId target = 0;
  std::uint32_t hops = 0;
};

// QM-internal: re-examine a blocked request's waits and (re)emit probes.
struct ProbeQuery {
  TxnId initiator = 0;
  Attempt initiator_attempt = 0;
  TxnId target = 0;  // transaction whose blockers we want
  std::uint32_t hops = 0;
};

}  // namespace msg

using Message =
    std::variant<msg::CcRequest, msg::Grant, msg::Backoff, msg::PaAccept,
                 msg::FinalTs, msg::Reject, msg::Release, msg::SemiTransform,
                 msg::AbortTxn, msg::WfgSnapshotRequest,
                 msg::WfgSnapshotReply, msg::Victim, msg::Probe,
                 msg::ProbeQuery>;

// Index into message-kind counters; order matches the variant.
enum class MessageKind : std::size_t {
  kCcRequest = 0,
  kGrant,
  kBackoff,
  kPaAccept,
  kFinalTs,
  kReject,
  kRelease,
  kSemiTransform,
  kAbortTxn,
  kWfgSnapshotRequest,
  kWfgSnapshotReply,
  kVictim,
  kProbe,
  kProbeQuery,
  kNumKinds,
};

// Returns the kind of a message instance.
MessageKind KindOf(const Message& m);

// Display name, e.g. "Grant".
std::string_view MessageKindName(MessageKind k);

}  // namespace unicc

#endif  // UNICC_NET_MESSAGE_H_
