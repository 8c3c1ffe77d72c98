// Bounded admission gate: the overload-control front door for streaming
// admission. When the MPL gate has no free slot, arrivals are parked here
// instead of blocking the arrival stream; the gate holds at most
// `queue_limit` entries and applies a deterministic shed policy when full.
// Shedding frees the system from unbounded queueing: under sustained
// overload the queue length, and hence the waiting time of admitted work,
// stays bounded, so goodput plateaus instead of collapsing.
//
// The gate is pure data structure — no simulator access, no randomness —
// so its behavior is a deterministic function of the offer/pop sequence.
#ifndef UNICC_ENGINE_ADMISSION_H_
#define UNICC_ENGINE_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/stream.h"

namespace unicc {

// What to do with a new arrival when the MPL cap is reached.
enum class ShedPolicy : std::uint8_t {
  // Pre-overload-control behavior: the arrival stream itself blocks (at
  // most one arrival is parked, admitted when the next commit frees a
  // slot). The bounded gate is not engaged.
  kBlock = 0,
  // The incoming arrival is shed when the gate is full.
  kDropNewest = 1,
  // The oldest parked entry among the lowest priority present is evicted
  // to make room for the incoming arrival.
  kDropOldest = 2,
  // The entry with the earliest absolute deadline (incoming included)
  // is shed — the work least likely to still meet its deadline.
  kDeadline = 3,
};

// Returns the canonical scenario token for `p` ("block", "drop_newest",
// ...); ParseShedPolicy is the inverse (false on unknown token).
const char* ShedPolicyToken(ShedPolicy p);
bool ParseShedPolicy(const std::string& token, ShedPolicy* out);

// A bounded priority queue of parked arrivals. Pop order: highest
// priority first, FIFO (admission sequence) within a priority. Linear
// scans are fine: queue_limit is small (tens), and the gate is exercised
// only under overload. Every choice is by (priority, seq), (deadline,
// seq) or seq, a total order, so where an entry sits never matters and
// removal swaps the last entry into the hole.
class AdmissionGate {
 public:
  struct Entry {
    Arrival arrival;
    std::uint32_t priority = 0;
    // Absolute expiry time (arrival.when + spec.deadline); 0 = none.
    SimTime deadline = 0;
    // How many times this transaction has been shed and re-submitted.
    std::uint32_t resubmits = 0;
    // Caller-assigned unique sequence number; the FIFO tie-breaker and
    // the handle for Remove() (the caller keys expiry timers on it).
    std::uint64_t seq = 0;
    // The caller's expiry event for this entry (0 = none). The gate only
    // carries it, so the caller can disarm it when the entry leaves.
    std::uint64_t timer = 0;
  };

  // Where an Offer() left things.
  struct Offered {
    // Where the offered entry now sits, or nullptr when it was shed
    // itself. Valid until the gate next changes.
    Entry* parked = nullptr;
    // True when a victim (possibly the offered entry) went to `*shed`.
    bool shed = false;
  };

  AdmissionGate(std::uint32_t queue_limit, ShedPolicy policy)
      : limit_(queue_limit), policy_(policy) {}

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  // Parks `e` (whose seq the caller has assigned, unique across offers).
  // If the gate is full, applies the shed policy and moves the victim to
  // `*shed` (which may be `e` itself under kDropNewest/kDeadline).
  Offered Offer(Entry e, Entry* shed);

  // Removes and returns the best entry (highest priority, then lowest
  // seq). Pre: !empty().
  Entry PopBest();

  // Removes the entry with sequence number `seq` (the expiry path).
  // Returns true and writes it to `*out` if present.
  bool Remove(std::uint64_t seq, Entry* out);

  // Removes and returns every parked entry (admission closed).
  std::vector<Entry> Drain();

 private:
  std::size_t BestIndex() const;
  // Moves entry `i` out, filling its place with the last entry.
  Entry TakeAt(std::size_t i);

  std::uint32_t limit_;
  ShedPolicy policy_;
  std::vector<Entry> entries_;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_ADMISSION_H_
