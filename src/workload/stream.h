// Pull-based arrival streams: the open-system admission contract. An
// ArrivalStream yields (arrival time, spec) pairs one at a time, in
// nondecreasing time order, so the engine can admit work lazily with O(1)
// memory instead of pre-materializing the whole schedule. Scenario
// workloads and trace readers are lazy streams; an ArrivalSink, a trace
// writer, is the other end.
#ifndef UNICC_WORKLOAD_STREAM_H_
#define UNICC_WORKLOAD_STREAM_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
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

  // OK unless the stream ended on bad input (a trace that does not
  // decode); read it once Next() has returned false.
  virtual Status status() const { return Status::OK(); }
};

// Takes arrivals one at a time, in nondecreasing time order: the writing
// end of a trace.
class ArrivalSink {
 public:
  virtual ~ArrivalSink() = default;

  // Takes the next arrival; one earlier than the last, or an invalid
  // spec, is refused.
  virtual Status Append(const Arrival& a) = 0;
  // Flushes everything appended. Idempotent; no Append may follow.
  virtual Status Finish() = 0;
};

// Pulls every arrival out of `stream` and hands it to `fn`; returns the
// number pumped. The record, export and forced-id paths stream with O(1)
// memory: no cap, the producing stream bounds the run.
std::uint64_t PumpStream(ArrivalStream& stream,
                         const std::function<void(const Arrival&)>& fn);

}  // namespace unicc

#endif  // UNICC_WORKLOAD_STREAM_H_
