// The data-site interface of the PAM framework and the services both sides
// share. A DataSiteBackend implements the data-queue-manager side
// (precedence assignment + enforcement) for every copy stored at one site:
// UnifiedQueueManager or BasicToManager. The request-issuer side has one
// implementation, RequestIssuer (cc/unified/issuer.h). The engine routes
// messages between them over the Transport.
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

}  // namespace unicc

#endif  // UNICC_CC_BACKEND_H_
