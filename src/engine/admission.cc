#include "engine/admission.h"

#include <utility>

namespace unicc {

const char* ShedPolicyToken(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kBlock:
      return "block";
    case ShedPolicy::kDropNewest:
      return "drop_newest";
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kDeadline:
      return "deadline";
  }
  return "?";
}

bool ParseShedPolicy(const std::string& token, ShedPolicy* out) {
  if (token == "block") {
    *out = ShedPolicy::kBlock;
  } else if (token == "drop_newest") {
    *out = ShedPolicy::kDropNewest;
  } else if (token == "drop_oldest") {
    *out = ShedPolicy::kDropOldest;
  } else if (token == "deadline") {
    *out = ShedPolicy::kDeadline;
  } else {
    return false;
  }
  return true;
}

AdmissionGate::Offered AdmissionGate::Offer(Entry e, Entry* shed) {
  if (entries_.size() < limit_) {
    entries_.push_back(std::move(e));
    return {&entries_.back(), false};
  }
  switch (policy_) {
    case ShedPolicy::kBlock:
      // The gate is never engaged under kBlock; treat a misuse as
      // drop-newest so behavior stays defined.
    case ShedPolicy::kDropNewest:
      break;
    case ShedPolicy::kDropOldest: {
      // Evict the oldest entry among the lowest priority present; the
      // incoming arrival takes its place (even if it is itself low
      // priority — newest information wins within a class).
      std::size_t victim = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        const Entry& v = entries_[victim];
        const Entry& c = entries_[i];
        if (c.priority < v.priority ||
            (c.priority == v.priority && c.seq < v.seq)) {
          victim = i;
        }
      }
      *shed = std::move(entries_[victim]);
      entries_[victim] = std::move(e);
      return {&entries_[victim], true};
    }
    case ShedPolicy::kDeadline: {
      // Shed the entry with the earliest absolute deadline — the work
      // least likely to commit in time. Deadline-free entries (deadline
      // 0) are treated as "infinitely patient" and never chosen over a
      // deadlined one; among equals the lower seq (older) loses first,
      // and the incoming arrival competes on the same terms.
      std::size_t victim = entries_.size();  // sentinel: incoming
      auto earlier = [](SimTime a_dl, std::uint64_t a_seq, SimTime b_dl,
                        std::uint64_t b_seq) {
        const SimTime a = a_dl == 0 ? ~SimTime(0) : a_dl;
        const SimTime b = b_dl == 0 ? ~SimTime(0) : b_dl;
        if (a != b) return a < b;
        return a_seq < b_seq;
      };
      SimTime best_dl = e.deadline;
      std::uint64_t best_seq = e.seq;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (earlier(entries_[i].deadline, entries_[i].seq, best_dl,
                    best_seq)) {
          victim = i;
          best_dl = entries_[i].deadline;
          best_seq = entries_[i].seq;
        }
      }
      if (victim == entries_.size()) break;
      *shed = std::move(entries_[victim]);
      entries_[victim] = std::move(e);
      return {&entries_[victim], true};
    }
  }
  *shed = std::move(e);
  return {nullptr, true};
}

std::size_t AdmissionGate::BestIndex() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& b = entries_[best];
    const Entry& c = entries_[i];
    if (c.priority > b.priority ||
        (c.priority == b.priority && c.seq < b.seq)) {
      best = i;
    }
  }
  return best;
}

AdmissionGate::Entry AdmissionGate::TakeAt(std::size_t i) {
  Entry out = std::move(entries_[i]);
  if (i + 1 != entries_.size()) entries_[i] = std::move(entries_.back());
  entries_.pop_back();
  return out;
}

AdmissionGate::Entry AdmissionGate::PopBest() { return TakeAt(BestIndex()); }

bool AdmissionGate::Remove(std::uint64_t seq, Entry* out) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].seq == seq) {
      *out = TakeAt(i);
      return true;
    }
  }
  return false;
}

std::vector<AdmissionGate::Entry> AdmissionGate::Drain() {
  return std::exchange(entries_, {});
}

}  // namespace unicc
