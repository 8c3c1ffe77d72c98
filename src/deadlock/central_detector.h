// Centralized periodic deadlock detector: every `interval` it requests
// wait-for snapshots from all data sites (real messages, so detection time
// and cost are simulation parameters, as the paper lists), assembles the
// global WFG, and aborts one victim per cycle.
//
// Victim policy: every genuine cycle contains a 2PL transaction (paper,
// Corollary 2), so the detector prefers the youngest 2PL member; if a
// transient snapshot shows a cycle without one (in-flight PA negotiation),
// it falls back to a T/O member and otherwise skips the cycle until the
// next round. Each member holds an edge of its cycle, and that edge names
// the member's protocol and home site (WaitEdge::holder_proto/_home).
#ifndef UNICC_DEADLOCK_CENTRAL_DETECTOR_H_
#define UNICC_DEADLOCK_CENTRAL_DETECTOR_H_

#include <vector>

#include "cc/backend.h"
#include "common/types.h"
#include "deadlock/wfg.h"

namespace unicc {

struct CentralDetectorOptions {
  Duration interval = 50 * kMillisecond;
  // A round whose snapshot replies have not all arrived within this window
  // is abandoned at the next tick and a fresh round starts (stale replies
  // are already round-tagged and ignored). 0 waits forever — safe only on
  // a lossless network, where every reply eventually arrives.
  Duration round_timeout = 0;
};

class CentralDeadlockDetector {
 public:
  CentralDeadlockDetector(SiteId site, CcContext ctx,
                          CentralDetectorOptions options,
                          std::vector<SiteId> data_sites);

  // Schedules the periodic snapshot rounds.
  void Start();

  // When `*stop` turns true, pending ticks stop rescheduling so the
  // simulation can drain. The pointee must outlive the detector.
  void SetStopFlag(const bool* stop) { stop_ = stop; }

  // Routed in by the engine.
  void OnSnapshotReply(const msg::WfgSnapshotReply& m);

  std::uint64_t victims_selected() const { return victims_selected_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }
  std::uint64_t rounds_abandoned() const { return rounds_abandoned_; }
  std::uint64_t cycles_skipped() const { return cycles_skipped_; }
  std::uint64_t non_2pl_victims() const { return non_2pl_victims_; }

 private:
  void Tick();
  void Analyze();

  SiteId site_;
  CcContext ctx_;
  CentralDetectorOptions options_;
  std::vector<SiteId> data_sites_;

  const bool* stop_ = nullptr;
  std::uint64_t round_ = 0;
  std::size_t replies_pending_ = 0;
  SimTime round_start_ = 0;
  std::vector<WaitEdge> collected_;

  std::uint64_t victims_selected_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_abandoned_ = 0;
  std::uint64_t cycles_skipped_ = 0;
  std::uint64_t non_2pl_victims_ = 0;
};

}  // namespace unicc

#endif  // UNICC_DEADLOCK_CENTRAL_DETECTOR_H_
