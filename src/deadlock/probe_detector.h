// Edge-chasing (Chandy-Misra-Haas style, AND model) distributed deadlock
// detection. Each user site periodically initiates probes on behalf of its
// long-waiting 2PL transactions; probes travel waiter -> blocker via the
// data sites' local wait information. A probe returning to its initiator
// proves a cycle and the initiator aborts (the classic CMH victim rule).
// Probes are only initiated for 2PL transactions: every genuine cycle
// contains one (paper, Corollary 2), and T/O / PA transactions must not be
// restarted by the detector.
#ifndef UNICC_DEADLOCK_PROBE_DETECTOR_H_
#define UNICC_DEADLOCK_PROBE_DETECTOR_H_

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "cc/backend.h"
#include "cc/unified/issuer.h"
#include "common/types.h"

namespace unicc {

struct ProbeDetectorOptions {
  // How often waiting transactions (re-)initiate probes.
  Duration interval = 50 * kMillisecond;
  // Only transactions waiting at least this long initiate probes.
  Duration min_wait = 30 * kMillisecond;
  // Probe forwarding hop limit (safety bound).
  std::uint32_t max_hops = 64;
};

// The user-site half: initiation and probe handling.
class ProbeDeadlockDetector {
 public:
  ProbeDeadlockDetector(SiteId site, CcContext ctx,
                        ProbeDetectorOptions options, RequestIssuer* issuer);

  void Start();

  // When `*stop` turns true, pending ticks stop rescheduling so the
  // simulation can drain. The pointee must outlive the detector.
  void SetStopFlag(const bool* stop) { stop_ = stop; }

  // A probe visiting transaction `target` homed at this site.
  void OnProbe(const msg::Probe& m);

  std::uint64_t probes_initiated() const { return probes_initiated_; }
  std::uint64_t deadlocks_found() const { return deadlocks_found_; }

 private:
  void Tick();
  void ForwardFor(TxnId txn, const msg::Probe& m);

  SiteId site_;
  CcContext ctx_;
  ProbeDetectorOptions options_;
  RequestIssuer* issuer_;

  const bool* stop_ = nullptr;
  // Dedup of (initiator, initiator_attempt, target) to bound traffic.
  std::set<std::tuple<TxnId, Attempt, TxnId>> seen_;
  std::uint64_t ticks_ = 0;
  std::uint64_t probes_initiated_ = 0;
  std::uint64_t deadlocks_found_ = 0;
};

// The data-site half: answers a ProbeQuery by forwarding probes to the
// blockers of `target` according to the backend's local wait edges, each
// to the home site its edge names. A blocker that committed but whose
// Release is still in flight keeps its entry, and so its edge, until the
// Release arrives.
void HandleProbeQuery(SiteId site, const CcContext& ctx,
                      const DataSiteBackend& backend,
                      const msg::ProbeQuery& m);

}  // namespace unicc

#endif  // UNICC_DEADLOCK_PROBE_DETECTOR_H_
