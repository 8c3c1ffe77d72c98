// Engine configuration: cluster shape, substrate parameters and the choice
// of concurrency-control backend. These are the knobs the paper's Section 1
// lists as performance-relevant (arrival rate and mix live in the
// scenario's workload classes, ScenarioClass): transmission delay,
// transaction size, restart cost, deadlock detection time/cost.
#ifndef UNICC_ENGINE_CONFIG_H_
#define UNICC_ENGINE_CONFIG_H_

#include <cstdint>

#include "cc/unified/issuer.h"
#include "cc/unified/queue_manager.h"
#include "common/status.h"
#include "common/types.h"
#include "deadlock/central_detector.h"
#include "engine/admission.h"
#include "net/fault_model.h"
#include "net/transport.h"

namespace unicc {

// Which queue-manager stack serves the data sites.
enum class BackendKind : std::uint8_t {
  // The paper's unified system: any per-transaction protocol mix. With
  // every transaction on 2PL (or on PA) it is exactly pure 2PL (pure PA),
  // so it also runs those baselines.
  kUnified = 0,
  // Basic T/O, the pure T/O baseline: every transaction must use T/O.
  kBasicTo = 1,
};

enum class DetectorKind : std::uint8_t {
  kNone = 0,
  kCentral = 1,  // periodic global WFG snapshots
};

struct EngineOptions {
  std::uint32_t num_user_sites = 4;
  std::uint32_t num_data_sites = 4;
  ItemId num_items = 128;
  std::uint32_t replication = 1;

  NetworkOptions network;

  // Topology tiers, seeded message faults and site crash events; inactive
  // (perfect constant-delay mesh) by default. See net/fault_model.h and
  // the [topology] / [fault] scenario sections.
  FaultOptions fault;

  // Liveness under loss/crashes: a transaction whose current incarnation
  // has not reached its compute phase within this window aborts its
  // requests and restarts (fresh CcRequests re-cover any lost message).
  // 0 disables. Required whenever messages can be lost.
  Duration request_timeout = 0;

  BackendKind backend = BackendKind::kUnified;
  // False selects the lock-everything ablation of Section 4.2.
  bool semi_locks = true;

  DetectorKind detector = DetectorKind::kCentral;
  CentralDetectorOptions central_detector;

  // Restart delay / PA back-off interval.
  Duration restart_delay_mean = 20 * kMillisecond;
  Timestamp default_backoff_interval = 64;
  // Each user site's clock is offset by a uniform draw from
  // [0, max_clock_skew]; 0 gives perfectly synchronized timestamps (and
  // hence almost no T/O rejects or PA back-offs). Out-of-timestamp-order
  // arrivals only happen when the skew between two sites exceeds the
  // grant latency, so this should be a few times the one-way delay;
  // era-appropriate clock skews comfortably exceeded network RTTs.
  Duration max_clock_skew = 50 * kMillisecond;

  std::uint64_t seed = 42;

  // Open-system run controls. They bound *streaming* admission
  // (EngineBuilder::WithArrivalStream); batch admission (AddWorkload /
  // AddTransaction) is unaffected. 0 means "unbounded" for each.
  struct RunControls {
    // Arrivals after this simulated time are not admitted; in-flight work
    // drains to completion.
    SimTime time_horizon = 0;
    // Admission closes once this many transactions have committed (the
    // in-flight remainder still drains, so the final count may exceed it
    // by up to the multiprogramming level).
    std::uint64_t commit_target = 0;
    // Multiprogramming-level cap: an arrival finding this many
    // transactions in flight waits at the admission gate and enters when
    // the next commit frees a slot.
    std::uint32_t max_inflight = 0;

    // --- Overload control (streaming admission only) ---
    // shed_policy != kBlock engages the bounded AdmissionGate: arrivals
    // that find the MPL cap full are parked (up to queue_limit entries)
    // and shed deterministically beyond that, instead of back-pressuring
    // the arrival stream. kBlock is the exact pre-overload-control
    // behavior. With the gate engaged, per-class deadlines (TxnSpec::
    // deadline) are enforced: parked or in-flight work past its deadline
    // is expired with a counted outcome.
    ShedPolicy shed_policy = ShedPolicy::kBlock;
    // Bounded gate capacity; required >= 1 for any shedding policy and
    // must stay 0 under kBlock.
    std::uint32_t queue_limit = 0;
    // Client-side re-submission of shed transactions: up to retry_limit
    // re-offers per transaction, delayed by capped exponential backoff
    // retry_delay * 2^k (capped at retry_max_delay) plus seeded jitter in
    // [0, retry_delay). 0 disables.
    std::uint32_t retry_limit = 0;
    Duration retry_delay = 0;
    Duration retry_max_delay = 0;
  };
  RunControls run;

  // Run-level watchdog (Engine::Run): both knobs 0 = disabled.
  struct WatchdogControls {
    // Wall-clock budget for the whole run; exceeded => the run is
    // cancelled cleanly with a Status naming the last progress point.
    Duration run_deadline = 0;  // interpreted as wall-clock, not sim time
    // No-progress stall window in *simulated* time: if no commit (or
    // expiry) lands for this long while events are still pending, the
    // run is declared wedged and cancelled.
    Duration stall_window = 0;
  };
  WatchdogControls watchdog;

  // Window length for the TimelineRecorder time-series (per-window
  // throughput, system-time percentiles, per-protocol counts); 0 disables
  // the recorder.
  Duration metrics_window = 0;

  Status Validate() const;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_CONFIG_H_
