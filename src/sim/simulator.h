// Deterministic discrete-event simulator. Components schedule closures at
// future simulated times; the run loop pops them in (time, sequence) order so
// ties resolve by scheduling order, or by reservation order for events
// scheduled under a reserved sequence number (ReserveSeq), and runs are
// reproducible.
//
// Hot-path design (see docs/performance.md): events live in a free-listed
// slot arena and are ordered by a monotone radix heap over their 128-bit
// (time, seq, slot) keys, threaded through the arena — each pending slot
// holds its key and the link to the next slot of its bucket — so the
// steady-state schedule/run cycle recycles slots and performs no heap
// allocation. Callbacks are stored in place via a small-buffer-optimized
// EventFn, constructed directly in their slot.
// Cancel() is an O(1) slot disarm: the callback is destroyed immediately
// and only an inert placeholder stays queued until a pop scans its bucket,
// so PendingEvents() never counts cancelled events. Event ids carry a
// generation tag, so a stale id can never cancel the slot's next tenant.
#ifndef UNICC_SIM_SIMULATOR_H_
#define UNICC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/event_fn.h"
#include "common/types.h"

namespace unicc {

class Simulator {
 public:
  Simulator() { head_.fill(kNilIndex); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Returns an id usable with
  // Cancel(). The templated overloads construct the callable directly in
  // its event slot (no intermediate move).
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  std::uint64_t Schedule(Duration delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  std::uint64_t Schedule(Duration delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Schedules `fn` at an absolute time (must be >= Now()).
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  std::uint64_t ScheduleAt(SimTime when, F&& fn) {
    const std::uint32_t idx = AcquireSlot();
    slots_[idx].fn.Emplace(std::forward<F>(fn));
    return FinishSchedule(when, ReserveSeq(), idx);
  }
  std::uint64_t ScheduleAt(SimTime when, EventFn fn) {
    UNICC_CHECK_MSG(static_cast<bool>(fn), "scheduling an empty EventFn");
    const std::uint32_t idx = AcquireSlot();
    slots_[idx].fn = std::move(fn);
    return FinishSchedule(when, ReserveSeq(), idx);
  }

  // Takes the sequence number an event scheduled now would get, so that
  // event can be scheduled later (ScheduleReserved) and still break ties
  // exactly where it would have had it been scheduled now.
  std::uint64_t ReserveSeq() {
    UNICC_CHECK_MSG(next_seq_ < kSeqLimit, "sequence space exhausted");
    return next_seq_++;
  }

  // Schedules `fn` at `when` under `seq`, a number ReserveSeq() returned.
  // Contract: the caller uses each reserved number for at most one event
  // (the engine's batch FIFO does so by construction); nothing checks it,
  // and two events sharing (when, seq) would be ordered by their slots.
  // Checked in every build: `seq` was drawn (seq < the next number), and
  // the key (when, seq) does not sort before the event now running (or the
  // last one run), since the queue never pops backwards.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  std::uint64_t ScheduleReserved(SimTime when, std::uint64_t seq, F&& fn) {
    CheckReserved(when, seq);
    const std::uint32_t idx = AcquireSlot();
    slots_[idx].fn.Emplace(std::forward<F>(fn));
    return FinishSchedule(when, seq, idx);
  }

  // Cancels a pending event in O(1). Returns false if it already ran or
  // was cancelled. The callback is destroyed immediately (its captures are
  // released); only an inert placeholder stays queued until a pop scans
  // its bucket and frees it.
  bool Cancel(std::uint64_t event_id);

  // Runs events until no live event remains at or before `until`. Events
  // with timestamp == until still run. The clock then advances to `until`
  // when no live event is pending at all — cancelled placeholders do not
  // hold it back. When live events exist beyond `until`, the clock stays
  // at the last executed event. Returns the number of events executed.
  std::uint64_t RunUntil(SimTime until);

  // Runs until the queue is completely empty. A safety cap on the number of
  // events guards against livelock bugs in protocols under test.
  std::uint64_t RunToCompletion(std::uint64_t max_events = 500'000'000ULL);

  // Number of live (non-cancelled) events currently pending.
  std::size_t PendingEvents() const { return live_; }

  // Returned by NextEventTime() when no event (live or placeholder) is
  // queued.
  static constexpr SimTime kNoPending = ~static_cast<SimTime>(0);

  // Earliest queued event time, or kNoPending when the queue is empty.
  // Cancelled placeholders count: the result is a conservative lower bound
  // on the next live event, which is what a sliced run loop (the engine's
  // watchdog) needs (RunUntil frees the placeholders it meets, so progress
  // is still guaranteed). Only reads: the queue is left as it was.
  SimTime NextEventTime() const;

  // Total events executed so far (cancelled events never count).
  std::uint64_t EventsRun() const { return events_run_; }

  // Slots ever allocated in the event arena. Constant-load scheduling must
  // not grow this once warm; perf_gate asserts it (the zero-allocation
  // property of the schedule/run cycle).
  std::size_t ArenaSlots() const { return slots_.size(); }

 private:
  // Keys pack (when << 64) | (seq << kSlotBits) | slot. Every seq comes
  // from one counter (ScheduleAt draws it, ReserveSeq hands it out) and
  // ScheduleAt uses it once; as long as ScheduleReserved callers keep
  // their once-only contract, comparing keys compares (when, seq) — the
  // slot bits never decide — a total order: runs are bit-reproducible.
  using Key = unsigned __int128;

  struct alignas(64) Slot {
    EventFn fn;                      // non-empty iff the event is pending
    Key key = 0;                     // valid while queued
    std::uint32_t gen = 1;           // generation tag in the event id
    std::uint32_t next = kNilIndex;  // bucket link while queued, free-list
                                     // link while free
  };
  static_assert(sizeof(Slot) == 64, "a slot should fill one cache line");

  static constexpr std::uint32_t kSlotBits = 24;  // 16M concurrent events
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = 1ULL << (64 - kSlotBits);
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;
  static constexpr int kBuckets = 129;

  // (when, seq) as a key with empty slot bits.
  static Key KeyOf(SimTime when, std::uint64_t seq) {
    return (static_cast<Key>(when) << 64) | (seq << kSlotBits);
  }

  // Runs the earliest live event if due at/before `until`; returns false
  // when no live event is due. Cancelled placeholders in the scanned
  // bucket are freed along the way regardless of their timestamp.
  bool Step(SimTime until);

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t idx);
  // ScheduleReserved's checked preconditions; aborts when one fails.
  void CheckReserved(SimTime when, std::uint64_t seq) const;
  std::uint64_t FinishSchedule(SimTime when, std::uint64_t seq,
                               std::uint32_t idx);
  // Pushes queued slot `idx` onto the bucket of its key.
  void Link(std::uint32_t idx);
  // Lowest non-empty bucket (it holds the smallest keys), or -1.
  int LowestBucket() const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;  // slot arena, grows to peak load
  std::uint32_t free_head_ = kNilIndex;
  // The radix base: KeyOf(when, seq) of the event now running, or of the
  // last one run (0 before the first). It moves only when an event runs,
  // and no key is ever scheduled below it (CheckReserved, and fresh seqs
  // for the rest), so the heap stays monotone.
  Key base_ = 0;
  // Bucket b > 0 holds the queued keys whose highest bit differing from
  // base_ is bit b - 1, as a list through Slot::next; bucket 0 holds keys
  // equal to it. Every key of a bucket is below every key of a higher
  // one. Bit b of mask_ is set iff bucket b is non-empty.
  std::array<std::uint32_t, kBuckets> head_;
  std::uint64_t mask_[(kBuckets + 63) / 64] = {};
};

}  // namespace unicc

#endif  // UNICC_SIM_SIMULATOR_H_
