// Backend interfaces of the PAM framework. A DataSiteBackend implements the
// data-queue-manager side (precedence assignment + enforcement) for every
// copy stored at one site; an Issuer implements the request-issuer side for
// the transactions of one user site. The engine routes messages between
// them over the Transport.
#ifndef UNICC_CC_BACKEND_H_
#define UNICC_CC_BACKEND_H_

#include <functional>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/log.h"
#include "storage/store.h"
#include "txn/transaction.h"

namespace unicc {

// Shared services handed to backends at construction.
struct CcContext {
  Simulator* sim = nullptr;
  Transport* transport = nullptr;
  LogSink* log = nullptr;
};

// Hooks the engine installs to observe protocol events (metrics and the STL
// parameter estimator subscribe here).
struct CcHooks {
  // A request lock was granted (normal or pre-scheduled).
  std::function<void(const CopyId&, OpType, Protocol)> on_grant;
  // A Basic T/O request was rejected.
  std::function<void(OpType, Protocol)> on_reject;
  // A PA request received a back-off offer.
  std::function<void(OpType)> on_backoff_offer;
};

// The data-queue-manager side for all copies at one data site.
class DataSiteBackend {
 public:
  virtual ~DataSiteBackend() = default;

  virtual void OnRequest(const msg::CcRequest& m) = 0;
  virtual void OnFinalTs(const msg::FinalTs& m) = 0;
  virtual void OnRelease(const msg::Release& m) = 0;
  virtual void OnSemiTransform(const msg::SemiTransform& m) = 0;
  virtual void OnAbort(const msg::AbortTxn& m) = 0;

  // Appends this site's current wait-for edges (waiter -> holder/blocker)
  // for deadlock detection.
  virtual void CollectWaitEdges(std::vector<WaitEdge>* out) const = 0;

  // Read access to stored values (grants attach the value read).
  virtual const Store& store() const = 0;

  // Human-readable dump of non-empty queues (debugging/observability).
  virtual std::string DebugString() const { return {}; }
};

// Completion callback: invoked exactly once per transaction, at commit.
using CommitCallback = std::function<void(const TxnResult&)>;

// The request-issuer side for one user site.
class Issuer {
 public:
  virtual ~Issuer() = default;

  // Admits a transaction (arrival time = now). The issuer drives it to
  // commit, restarting incarnations as its protocol requires.
  virtual void Begin(const TxnSpec& spec) = 0;

  virtual void OnGrant(const msg::Grant& m) = 0;
  virtual void OnBackoff(const msg::Backoff& m) = 0;
  virtual void OnPaAccept(const msg::PaAccept& m) = 0;
  virtual void OnReject(const msg::Reject& m) = 0;
  virtual void OnVictim(const msg::Victim& m) = 0;

  // True while the transaction is admitted and not yet committed.
  virtual bool IsActive(TxnId txn) const = 0;

  // Number of transactions begun but not yet committed.
  virtual std::size_t ActiveCount() const = 0;
};

}  // namespace unicc

#endif  // UNICC_CC_BACKEND_H_
