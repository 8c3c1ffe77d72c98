// Deterministic discrete-event simulator. Components schedule closures at
// future simulated times; the run loop pops them in (time, sequence) order so
// ties resolve by scheduling order, or by reservation order for events
// scheduled under a reserved sequence number (ReserveSeq), and runs are
// reproducible.
//
// Hot-path design (see docs/performance.md): events live in a free-listed
// slot arena and are ordered by a banded 8-ary heap of 16-byte
// (time, seq|slot) entries, so the steady-state schedule/run cycle
// recycles slots and performs no heap allocation — callbacks are stored
// in place via a small-buffer-optimized EventFn, constructed directly in
// their slot.
// Cancel() is an O(1) slot disarm: the callback is destroyed immediately
// and only an inert placeholder stays in the heap until popped, so
// PendingEvents() never counts cancelled events. Event ids carry a
// generation tag, so a stale id can never cancel the slot's next tenant.
#ifndef UNICC_SIM_SIMULATOR_H_
#define UNICC_SIM_SIMULATOR_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/event_fn.h"
#include "common/types.h"

namespace unicc {

class Simulator {
 public:
  Simulator() = default;
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
  // released); only an inert placeholder stays in the heap until popped.
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
  // watchdog) needs (RunUntil frees placeholders at the top, so progress
  // is still guaranteed).
  SimTime NextEventTime() const;

  // Total events executed so far (cancelled events never count).
  std::uint64_t EventsRun() const { return events_run_; }

  // Slots ever allocated in the event arena. Constant-load scheduling must
  // not grow this once warm; perf_gate asserts it (the zero-allocation
  // property of the schedule/run cycle).
  std::size_t ArenaSlots() const { return slots_.size(); }

 private:
  struct Slot {
    EventFn fn;                   // non-empty iff the event is pending
    std::uint32_t gen = 1;        // generation tag in the event id
    std::uint32_t next_free = 0;  // free-list link (valid when free)
  };

  // 16-byte heap entries: one 128-bit key packing (when << 64) |
  // (seq << kSlotBits) | slot. Every seq comes from one counter
  // (ScheduleAt draws it, ReserveSeq hands it out) and ScheduleAt uses it
  // once; as long as ScheduleReserved callers keep their once-only
  // contract, comparing keys compares (when, seq) — the slot bits never
  // decide — a total order: runs are bit-reproducible. A single wide
  // compare keeps the sift loops branch-cheap.
  struct HeapEntry {
    unsigned __int128 key;

    SimTime When() const {
      return static_cast<SimTime>(key >> 64);
    }
    std::uint32_t Slot() const {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
    bool Before(const HeapEntry& o) const { return key < o.key; }
  };

  static constexpr std::uint32_t kSlotBits = 24;  // 16M concurrent events
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = 1ULL << (64 - kSlotBits);
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  // (when, seq) as a heap key with empty slot bits.
  static unsigned __int128 KeyOf(SimTime when, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(when) << 64) | (seq << kSlotBits);
  }

  // Executes the top live event if due at/before `until`; returns false
  // when no live event is due. Cancelled placeholders encountered at the
  // top are freed along the way regardless of their timestamp.
  bool Step(SimTime until);

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t idx);
  // ScheduleReserved's checked preconditions; aborts when one fails.
  void CheckReserved(SimTime when, std::uint64_t seq) const;
  std::uint64_t FinishSchedule(SimTime when, std::uint64_t seq,
                               std::uint32_t idx);
  void HeapPush(HeapEntry entry);
  void HeapPopRoot();
  // Shared sift-down of `moved` from hole `i` (pop path and Floyd
  // heapify in MigrateBand).
  void SiftDown(std::size_t i, HeapEntry moved);
  // Refills the near heap from the far pool: picks the next time band,
  // partitions far_ by it and heapifies the near side. Requires far_
  // non-empty; guarantees near_ non-empty afterwards.
  void MigrateBand();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  // KeyOf(when, seq) of the event now running, or of the last one run;
  // meaningful once events_run_ > 0.
  unsigned __int128 running_key_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;  // slot arena, grows to peak load
  // Two-band event queue: events below `horizon_` live in the near
  // 8-ary min-heap (kept small, so sift depth stays shallow and
  // cache-hot);
  // everything else is an O(1) append into the unsorted far pool. When
  // the near heap drains, MigrateBand() advances the horizon. Ordering is
  // exact: the near heap always holds every pending key < horizon_.
  std::vector<HeapEntry> near_;
  std::vector<HeapEntry> far_;
  unsigned __int128 horizon_ = 0;  // exclusive upper bound on near_ keys
  std::uint32_t free_head_ = kNilIndex;
};

}  // namespace unicc

#endif  // UNICC_SIM_SIMULATOR_H_
