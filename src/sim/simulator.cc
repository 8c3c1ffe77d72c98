#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace unicc {

namespace {
// 8-ary heap: shallower than binary for the same size, so the pop path
// touches fewer cache lines; children of i are [8i+1, 8i+8].
constexpr std::size_t kArity = 8;
}  // namespace

std::uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNilIndex) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  UNICC_CHECK_MSG(slots_.size() < (1u << kSlotBits),
                  "event arena exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  ++s.gen;  // stale ids held by callers can no longer reach this slot
  s.next_free = free_head_;
  free_head_ = idx;
}

void Simulator::CheckReserved(SimTime when, std::uint64_t seq) const {
  UNICC_CHECK_MSG(seq < next_seq_, "sequence number was never drawn");
  UNICC_CHECK_MSG(events_run_ == 0 || KeyOf(when, seq) > running_key_,
                  "reserved key sorts before the running event");
}

std::uint64_t Simulator::FinishSchedule(SimTime when, std::uint64_t seq,
                                        std::uint32_t idx) {
  UNICC_CHECK(when >= now_);
  const HeapEntry entry{KeyOf(when, seq) | idx};
  if (entry.key < horizon_) {
    HeapPush(entry);
  } else {
    far_.push_back(entry);
  }
  ++live_;
  return (static_cast<std::uint64_t>(slots_[idx].gen) << 32) | idx;
}

void Simulator::HeapPush(HeapEntry entry) {
  // Hole insertion: shift losing parents down instead of swapping, so each
  // level moves one entry, not three.
  std::size_t i = near_.size();
  near_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!entry.Before(near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = entry;
}

void Simulator::SiftDown(std::size_t i, HeapEntry moved) {
  const std::size_t n = near_.size();
  const HeapEntry* h = near_.data();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (h[c].Before(h[best])) best = c;
    }
    if (!h[best].Before(moved)) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = moved;
}

void Simulator::HeapPopRoot() {
  const HeapEntry moved = near_.back();
  near_.pop_back();
  if (near_.empty()) return;
  SiftDown(0, moved);
}

void Simulator::MigrateBand() {
  // Pick the next band: an eighth of the far pool's time span past its
  // minimum (at least one tick), so roughly an eighth of far_ migrates per
  // call and a far event is rescanned a bounded number of times.
  SimTime lo = static_cast<SimTime>(far_[0].key >> 64);
  SimTime hi = lo;
  for (const HeapEntry& e : far_) {
    const SimTime w = static_cast<SimTime>(e.key >> 64);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  const SimTime band = std::max<SimTime>((hi - lo) / 8, 1);
  if (lo > std::numeric_limits<SimTime>::max() - band) {
    // Band reaches the end of the time axis: take everything. No real key
    // reaches all-ones (seq is capped well below 2^40).
    horizon_ = ~static_cast<unsigned __int128>(0);
  } else {
    horizon_ = static_cast<unsigned __int128>(lo + band) << 64;
  }
  auto mid = std::partition(far_.begin(), far_.end(), [this](
                                const HeapEntry& e) {
    return e.key < horizon_;
  });
  near_.assign(far_.begin(), mid);
  far_.erase(far_.begin(), mid);
  // Floyd heapify: cheaper than pushing one by one.
  for (std::size_t i = near_.size(); i-- > 0;) {
    SiftDown(i, near_[i]);
  }
}

bool Simulator::Cancel(std::uint64_t event_id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(event_id);
  const std::uint32_t gen = static_cast<std::uint32_t>(event_id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  // An empty fn with a matching generation means the event already ran, was
  // cancelled, or is executing right now; all three refuse the cancel.
  if (s.gen != gen || !s.fn) return false;
  s.fn.Reset();  // release captures now, not when the placeholder pops
  --live_;
  return true;
}

bool Simulator::Step(SimTime until) {
  while (!near_.empty() || !far_.empty()) {
    if (near_.empty()) MigrateBand();
    const HeapEntry top = near_[0];
    const std::uint32_t idx = top.Slot();
    Slot& s = slots_[idx];
    if (!s.fn) {
      // Cancelled placeholder: free it whenever it surfaces.
      HeapPopRoot();
      ReleaseSlot(idx);
      continue;
    }
    const SimTime when = top.When();
    if (when > until) return false;
    EventFn fn = std::move(s.fn);
    now_ = when;
    running_key_ = top.key & ~static_cast<unsigned __int128>(kSlotMask);
    HeapPopRoot();
    ReleaseSlot(idx);
    --live_;
    ++events_run_;
    // The next pop's slot is known now; overlap its (random-access) load
    // with the callback's work.
    if (!near_.empty()) __builtin_prefetch(&slots_[near_[0].Slot()]);
    fn();
    return true;
  }
  return false;
}

std::uint64_t Simulator::RunUntil(SimTime until) {
  std::uint64_t n = 0;
  while (Step(until)) ++n;
  // Advance the clock whenever nothing live is pending: the queue being
  // non-empty with only cancelled placeholders must behave exactly like an
  // empty queue (see SimulatorTest.RunUntilAdvancesPastCancelledResidue).
  if (now_ < until && live_ == 0) now_ = until;
  return n;
}

SimTime Simulator::NextEventTime() const {
  if (!near_.empty()) return near_.front().When();
  if (far_.empty()) return kNoPending;
  // The far pool is unsorted; a window boundary only needs the minimum, and
  // hitting this path at all means the near band drained, which is rare.
  SimTime best = far_.front().When();
  for (std::size_t i = 1; i < far_.size(); ++i) {
    best = std::min(best, far_[i].When());
  }
  return best;
}

std::uint64_t Simulator::RunToCompletion(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (Step(std::numeric_limits<SimTime>::max())) {
    ++n;
    UNICC_CHECK_MSG(n < max_events, "event cap exceeded: possible livelock");
  }
  return n;
}

}  // namespace unicc
