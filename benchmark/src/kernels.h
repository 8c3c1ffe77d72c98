// Standalone layer kernels: the unit cost of one operation of each layer,
// measured on that layer's public API in isolation. The traced report
// multiplies them by the run's exact counts to estimate how the engine's
// self time splits across layers.
#ifndef UNICC_BENCH_KERNELS_H_
#define UNICC_BENCH_KERNELS_H_

#include <cstdint>

namespace unicc::bench {

struct KernelCosts {
  double sim_schedule_run_ns = 0;     // one Schedule + its execution
  double net_send_deliver_ns = 0;     // one SimTransport send -> deliver
  double cc_qm_grant_release_ns = 0;  // one uncontended request + release
  double collect_edges_us_q64 = 0;      // CollectWaitEdges, 64 queues
  double collect_edges_us_q131072 = 0;  // ... 131072 touched queues
  double find_cycle_us_e4096 = 0;       // FindCycle on a 4096-edge DAG
  double stl_snapshot_ns = 0;           // ParamEstimator::Snapshot
  double selector_refresh_us = 0;       // MinStlSelector::EstimateFor
  double store_rw_ns = 0;               // Store write + read of one copy
  double replica_probe_ns = 0;          // verify loop, per unwritten copy
  double zipf_rejection_ns = 0;         // one rejection-inversion draw
  double stream_pull_ns = 0;            // one scenario-stream Next()
  double check_ns_per_record = 0;       // serializability sweep per record
};

// Runs every kernel for at least `min_seconds` each (after a warm-up).
KernelCosts RunKernels(double min_seconds);

// Microseconds for one wait-for snapshot of a queue manager that has
// touched `queues` copies, all since released: the per-site cost of a
// detector round.
double CollectEdgesUs(std::uint32_t queues, double min_seconds);

}  // namespace unicc::bench

#endif  // UNICC_BENCH_KERNELS_H_
