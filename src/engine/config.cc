#include "engine/config.h"

namespace unicc {

Status EngineOptions::Validate() const {
  if (num_user_sites == 0) {
    return Status::InvalidArgument("need at least one user site");
  }
  if (num_data_sites == 0) {
    return Status::InvalidArgument("need at least one data site");
  }
  if (num_items == 0) {
    return Status::InvalidArgument("need at least one item");
  }
  if (replication == 0 || replication > num_data_sites) {
    return Status::InvalidArgument("replication must be in [1, data sites]");
  }
  if (Status s = fault.Validate(num_user_sites + num_data_sites); !s.ok()) {
    return s;
  }
  if ((fault.loss > 0 || !fault.crashes.empty()) && request_timeout == 0) {
    return Status::InvalidArgument(
        "message loss or site crashes need [engine] request_timeout_ms > 0: "
        "a lost CcRequest (or one dropped at a crashed site) is only "
        "recovered by the issuer timeout");
  }
  if (fault.loss > 0 && detector == DetectorKind::kCentral &&
      central_detector.round_timeout == 0) {
    return Status::InvalidArgument(
        "message loss with the central detector needs [policy] "
        "detector_timeout_ms > 0: a lost snapshot reply would stall "
        "detection rounds forever");
  }
  if (run.shed_policy == ShedPolicy::kBlock) {
    if (run.queue_limit > 0) {
      return Status::InvalidArgument(
          "[run] queue_limit needs a shedding policy (shed_policy = "
          "drop_newest | drop_oldest | deadline); block parks at most one "
          "arrival and ignores the bound");
    }
    if (run.retry_limit > 0) {
      return Status::InvalidArgument(
          "[run] retry_limit needs a shedding policy: nothing is ever "
          "shed under block");
    }
  } else {
    if (run.queue_limit == 0) {
      return Status::InvalidArgument(
          "[run] shed_policy != block needs queue_limit >= 1: the bounded "
          "gate must hold at least one parked arrival");
    }
    if (run.max_inflight == 0) {
      return Status::InvalidArgument(
          "[run] shed_policy != block needs max_inflight > 0: without an "
          "MPL cap nothing is ever parked or shed");
    }
  }
  if (run.retry_limit > 0 && run.retry_delay == 0) {
    return Status::InvalidArgument(
        "[run] retry_limit > 0 needs retry_ms > 0: the re-submission "
        "backoff base must be positive");
  }
  if (run.retry_max_delay != 0 && run.retry_max_delay < run.retry_delay) {
    return Status::InvalidArgument(
        "[run] retry_max_ms must be >= retry_ms (it caps the exponential "
        "backoff)");
  }
  return Status::OK();
}

}  // namespace unicc
