#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace unicc {

std::uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNilIndex) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next;
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
  s.next = free_head_;
  free_head_ = idx;
}

void Simulator::CheckReserved(SimTime when, std::uint64_t seq) const {
  UNICC_CHECK_MSG(seq < next_seq_, "sequence number was never drawn");
  UNICC_CHECK_MSG(events_run_ == 0 || KeyOf(when, seq) > base_,
                  "reserved key sorts before the running event");
}

std::uint64_t Simulator::FinishSchedule(SimTime when, std::uint64_t seq,
                                        std::uint32_t idx) {
  UNICC_CHECK(when >= now_);
  slots_[idx].key = KeyOf(when, seq) | idx;
  Link(idx);
  ++live_;
  return (static_cast<std::uint64_t>(slots_[idx].gen) << 32) | idx;
}

void Simulator::Link(std::uint32_t idx) {
  Slot& s = slots_[idx];
  const Key diff = s.key ^ base_;
  const auto hi = static_cast<std::uint64_t>(diff >> 64);
  const auto lo = static_cast<std::uint64_t>(diff);
  // 1 + the index of the highest differing bit; 0 when there is none.
  const int b = hi != 0   ? 128 - __builtin_clzll(hi)
                : lo != 0 ? 64 - __builtin_clzll(lo)
                          : 0;
  s.next = head_[b];
  head_[b] = idx;
  mask_[b / 64] |= 1ULL << (b % 64);
}

int Simulator::LowestBucket() const {
  for (int w = 0; w < (kBuckets + 63) / 64; ++w) {
    if (mask_[w] != 0) return 64 * w + __builtin_ctzll(mask_[w]);
  }
  return -1;
}

bool Simulator::Cancel(std::uint64_t event_id) {
  const std::uint32_t idx = static_cast<std::uint32_t>(event_id);
  const std::uint32_t gen = static_cast<std::uint32_t>(event_id >> 32);
  if (idx >= slots_.size()) return false;
  Slot& s = slots_[idx];
  // An empty fn with a matching generation means the event already ran, was
  // cancelled, or is executing right now; all three refuse the cancel.
  if (s.gen != gen || !s.fn) return false;
  s.fn.Reset();  // release captures now, not when the placeholder is freed
  --live_;
  return true;
}

bool Simulator::Step(SimTime until) {
  for (int b = LowestBucket(); b >= 0; b = LowestBucket()) {
    // One pass over the lowest bucket, which holds the smallest keys:
    // free its cancelled placeholders and find its minimum.
    std::uint32_t* link = &head_[b];
    std::uint32_t* min_link = nullptr;
    Key min_key = ~Key{0};  // above every real key: seq < kSeqLimit
    while (*link != kNilIndex) {
      const std::uint32_t idx = *link;
      Slot& s = slots_[idx];
      if (!s.fn) {
        *link = s.next;
        ReleaseSlot(idx);
        continue;
      }
      if (s.key < min_key) {
        min_key = s.key;
        min_link = link;
      }
      link = &s.next;
    }
    if (min_link == nullptr) {  // only placeholders: the bucket is empty
      mask_[b / 64] &= ~(1ULL << (b % 64));
      continue;
    }
    const std::uint32_t idx = *min_link;
    Slot& s = slots_[idx];
    const SimTime when = static_cast<SimTime>(s.key >> 64);
    // Not due: it stays queued, and the base stays where it was, so later
    // events may still be scheduled before it.
    if (when > until) return false;
    *min_link = s.next;
    base_ = s.key & ~static_cast<Key>(kSlotMask);
    // Relative to the new base, the rest of the bucket lands lower down.
    std::uint32_t rest = head_[b];
    head_[b] = kNilIndex;
    mask_[b / 64] &= ~(1ULL << (b % 64));
    while (rest != kNilIndex) {
      const std::uint32_t next = slots_[rest].next;
      Link(rest);
      rest = next;
    }
    EventFn fn = std::move(s.fn);
    now_ = when;
    ReleaseSlot(idx);
    --live_;
    ++events_run_;
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
  const int b = LowestBucket();
  if (b < 0) return kNoPending;
  Key min = slots_[head_[b]].key;
  for (std::uint32_t i = slots_[head_[b]].next; i != kNilIndex;
       i = slots_[i].next) {
    min = std::min(min, slots_[i].key);
  }
  return static_cast<SimTime>(min >> 64);
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
