// Pull-based arrival streams: the open-system admission contract. An
// ArrivalStream yields (arrival time, spec) pairs one at a time, in
// nondecreasing time order, so the engine can admit work lazily with O(1)
// memory instead of pre-materializing the whole schedule. Scenario
// workloads are lazy streams; a recorded vector becomes a stream through
// the adapter.
#ifndef UNICC_WORKLOAD_STREAM_H_
#define UNICC_WORKLOAD_STREAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace unicc {

// One admission: a transaction spec arriving at an absolute simulated
// time.
struct Arrival {
  SimTime when = 0;
  TxnSpec spec;
};

// Produces successive arrivals on demand. `when` must be nondecreasing
// across calls; ids must be unique. Streams are single-pass: once Next()
// returns false the stream is exhausted for good.
class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  // Writes the next arrival into `*out` and returns true, or returns
  // false when the stream is exhausted (`*out` untouched).
  virtual bool Next(Arrival* out) = 0;
};

// Adapter: streams a materialized arrival vector in order (the closed-
// batch and trace-replay paths).
std::unique_ptr<ArrivalStream> MakeVectorStream(std::vector<Arrival> arrivals);

// Pulls every arrival out of `stream` and hands it to `fn`; returns the
// number pumped. The streaming record path (scenario stream -> trace
// writer) with O(1) memory — no cap, the producing stream bounds the run.
std::uint64_t PumpStream(ArrivalStream& stream,
                         const std::function<void(const Arrival&)>& fn);

}  // namespace unicc

#endif  // UNICC_WORKLOAD_STREAM_H_
