// Overload control: the bounded admission gate and its engine wiring.
//
// The first half exercises AdmissionGate directly — shed-victim choice
// per policy, pop order, removal — since the gate is a pure data
// structure. The second half drives full scenario runs through the gate
// and checks the outcome accounting (every offered transaction ends
// exactly once as committed, expired or dropped), determinism of the
// shed/expire/retry paths, and the scenario-level validation of the new
// [run]/[class] keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/admission.h"
#include "runner/runner.h"
#include "scenario/scenario.h"

namespace unicc {
namespace {

using runner::RunReport;
using runner::RunRequest;
using runner::RunSession;

AdmissionGate::Entry E(std::uint64_t seq, std::uint32_t priority = 0,
                       SimTime deadline = 0) {
  AdmissionGate::Entry e;
  e.seq = seq;
  e.priority = priority;
  e.deadline = deadline;
  return e;
}

TEST(ShedPolicyTest, TokensRoundTrip) {
  for (ShedPolicy p : {ShedPolicy::kBlock, ShedPolicy::kDropNewest,
                       ShedPolicy::kDropOldest, ShedPolicy::kDeadline}) {
    ShedPolicy back = ShedPolicy::kBlock;
    ASSERT_TRUE(ParseShedPolicy(ShedPolicyToken(p), &back));
    EXPECT_EQ(back, p);
  }
  ShedPolicy out;
  EXPECT_FALSE(ParseShedPolicy("lifo", &out));
  EXPECT_FALSE(ParseShedPolicy("", &out));
}

TEST(AdmissionGateTest, PopsByPriorityThenFifo) {
  AdmissionGate gate(8, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1, 0), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2, 2), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(3, 1), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(4, 2), &shed).shed);
  EXPECT_EQ(gate.PopBest().seq, 2u);  // highest priority, oldest first
  EXPECT_EQ(gate.PopBest().seq, 4u);
  EXPECT_EQ(gate.PopBest().seq, 3u);
  EXPECT_EQ(gate.PopBest().seq, 1u);
  EXPECT_TRUE(gate.empty());
}

TEST(AdmissionGateTest, DropNewestShedsTheIncomingArrival) {
  AdmissionGate gate(2, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2), &shed).shed);
  EXPECT_TRUE(gate.Offer(E(3, /*priority=*/9), &shed).shed);
  EXPECT_EQ(shed.seq, 3u);  // even a high-priority arrival: newest loses
  EXPECT_EQ(gate.size(), 2u);
}

TEST(AdmissionGateTest, DropOldestEvictsOldestLowestPriority) {
  AdmissionGate gate(3, ShedPolicy::kDropOldest);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1, 1), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2, 0), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(3, 0), &shed).shed);
  // Victim is seq 2: oldest among the lowest priority present (0), not
  // the globally oldest seq 1 (priority 1).
  EXPECT_TRUE(gate.Offer(E(4, 0), &shed).shed);
  EXPECT_EQ(shed.seq, 2u);
  EXPECT_EQ(gate.size(), 3u);
  EXPECT_EQ(gate.PopBest().seq, 1u);
  EXPECT_EQ(gate.PopBest().seq, 3u);
  EXPECT_EQ(gate.PopBest().seq, 4u);  // the incoming arrival kept a slot
}

TEST(AdmissionGateTest, DeadlineShedsEarliestDeadline) {
  AdmissionGate gate(2, ShedPolicy::kDeadline);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1, 0, /*deadline=*/100), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2, 0, /*deadline=*/300), &shed).shed);
  // The parked entry at 100 is the least likely to make it; the incoming
  // arrival (deadline 200) takes its slot.
  EXPECT_TRUE(gate.Offer(E(3, 0, /*deadline=*/200), &shed).shed);
  EXPECT_EQ(shed.seq, 1u);
  // Now 200 (seq 3) and 300 (seq 2) are parked; an incoming arrival with
  // the earliest deadline sheds itself.
  EXPECT_TRUE(gate.Offer(E(4, 0, /*deadline=*/150), &shed).shed);
  EXPECT_EQ(shed.seq, 4u);
}

TEST(AdmissionGateTest, DeadlineTreatsZeroAsInfinitelyPatient) {
  AdmissionGate gate(2, ShedPolicy::kDeadline);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1, 0, /*deadline=*/0), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2, 0, /*deadline=*/500), &shed).shed);
  // A deadline-free entry is never chosen over a deadlined one: the
  // victim is the incoming arrival (400), not parked seq 1.
  EXPECT_TRUE(gate.Offer(E(3, 0, /*deadline=*/400), &shed).shed);
  EXPECT_EQ(shed.seq, 3u);
  // All deadline-free: the oldest seq loses first.
  AdmissionGate patient(2, ShedPolicy::kDeadline);
  ASSERT_FALSE(patient.Offer(E(7), &shed).shed);
  ASSERT_FALSE(patient.Offer(E(8), &shed).shed);
  EXPECT_TRUE(patient.Offer(E(9), &shed).shed);
  EXPECT_EQ(shed.seq, 7u);
}

TEST(AdmissionGateTest, RemoveBySequenceAndDrain) {
  AdmissionGate gate(4, ShedPolicy::kDropNewest);
  AdmissionGate::Entry shed;
  ASSERT_FALSE(gate.Offer(E(1), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(2), &shed).shed);
  ASSERT_FALSE(gate.Offer(E(3), &shed).shed);
  AdmissionGate::Entry out;
  EXPECT_TRUE(gate.Remove(2, &out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_FALSE(gate.Remove(2, &out));  // already gone
  EXPECT_FALSE(gate.Remove(99, &out));
  std::vector<std::uint64_t> drained;
  for (const AdmissionGate::Entry& e : gate.Drain()) drained.push_back(e.seq);
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_TRUE(gate.empty());
}

TEST(AdmissionGateTest, OfferReportsWhereTheEntryWasParked) {
  AdmissionGate gate(2, ShedPolicy::kDropOldest);
  AdmissionGate::Entry shed;
  AdmissionGate::Offered o = gate.Offer(E(1), &shed);
  ASSERT_NE(o.parked, nullptr);
  EXPECT_EQ(o.parked->seq, 1u);
  o.parked->timer = 11;  // the caller arms the entry's timer in place
  gate.Offer(E(2), &shed).parked->timer = 12;
  // Full: seq 1 is evicted and seq 3 takes its place.
  o = gate.Offer(E(3), &shed);
  ASSERT_TRUE(o.shed);
  EXPECT_EQ(shed.seq, 1u);
  EXPECT_EQ(shed.timer, 11u);  // the victim carries its timer out
  ASSERT_NE(o.parked, nullptr);
  EXPECT_EQ(o.parked->seq, 3u);
  EXPECT_EQ(o.parked->timer, 0u);
  // A shed incoming entry is parked nowhere.
  AdmissionGate newest(1, ShedPolicy::kDropNewest);
  ASSERT_NE(newest.Offer(E(1), &shed).parked, nullptr);
  o = newest.Offer(E(2), &shed);
  EXPECT_TRUE(o.shed);
  EXPECT_EQ(o.parked, nullptr);
  EXPECT_EQ(shed.seq, 2u);
}

// Model check: random offer / pop / remove / drain sequences under each
// shed policy must match a reference that keeps the parked entries sorted
// in pop order and picks every victim by the policy's total order. Seqs
// are unique but offered in random order, and removals reshuffle the
// gate, so nothing may depend on where an entry sits.
TEST(AdmissionGateTest, RandomOpsMatchSortedReference) {
  struct PopOrder {  // highest priority first, then lowest seq
    bool operator()(const AdmissionGate::Entry& a,
                    const AdmissionGate::Entry& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq < b.seq;
    }
  };
  auto patience = [](const AdmissionGate::Entry& e) {
    return std::make_pair(e.deadline == 0 ? ~SimTime{0} : e.deadline, e.seq);
  };
  for (ShedPolicy policy : {ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
                            ShedPolicy::kDeadline}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(ShedPolicyToken(policy)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(policy));
      const auto limit = static_cast<std::uint32_t>(1 + rng.UniformInt(6));
      AdmissionGate gate(limit, policy);
      std::set<AdmissionGate::Entry, PopOrder> model;
      // Unique seqs, handed out in shuffled order.
      std::vector<std::uint64_t> seqs(400);
      std::iota(seqs.begin(), seqs.end(), 1);
      for (std::size_t i = seqs.size(); i > 1; --i) {
        std::swap(seqs[i - 1], seqs[rng.UniformInt(i)]);
      }
      for (std::uint64_t seq : seqs) {
        const std::uint64_t action = rng.UniformInt(20);
        if (action < 11) {
          const AdmissionGate::Entry e =
              E(seq, static_cast<std::uint32_t>(rng.UniformInt(3)),
                rng.UniformInt(4) == 0 ? 0 : 1 + rng.UniformInt(40));
          // Reference: the victim, if the gate is full.
          std::optional<std::uint64_t> victim;
          if (model.size() == limit) {
            if (policy == ShedPolicy::kDropNewest) {
              victim = seq;
            } else if (policy == ShedPolicy::kDropOldest) {
              // The oldest of the lowest priority present: the first, in
              // pop order, of the last priority class.
              const std::uint32_t lowest = std::prev(model.end())->priority;
              victim = std::find_if(model.begin(), model.end(),
                                    [&](const AdmissionGate::Entry& m) {
                                      return m.priority == lowest;
                                    })->seq;
            } else {
              auto best = patience(e);
              victim = seq;
              for (const auto& m : model) {
                if (patience(m) < best) {
                  best = patience(m);
                  victim = m.seq;
                }
              }
            }
          }
          AdmissionGate::Entry shed;
          const AdmissionGate::Offered got = gate.Offer(e, &shed);
          ASSERT_EQ(got.shed, victim.has_value());
          if (victim.has_value()) {
            ASSERT_EQ(shed.seq, *victim);
            std::erase_if(model, [&](const AdmissionGate::Entry& m) {
              return m.seq == *victim;
            });
          }
          if (victim != seq) {
            ASSERT_NE(got.parked, nullptr);
            ASSERT_EQ(got.parked->seq, seq);
            model.insert(e);
          } else {
            ASSERT_EQ(got.parked, nullptr);
          }
        } else if (action < 16) {
          if (model.empty()) continue;
          ASSERT_EQ(gate.PopBest().seq, model.begin()->seq);
          model.erase(model.begin());
        } else if (action < 19) {
          // Remove a parked entry, or one that is not there.
          AdmissionGate::Entry out;
          if (!model.empty() && rng.UniformInt(3) != 0) {
            auto it = model.begin();
            std::advance(it, static_cast<long>(rng.UniformInt(model.size())));
            ASSERT_TRUE(gate.Remove(it->seq, &out));
            ASSERT_EQ(out.seq, it->seq);
            model.erase(it);
          } else {
            ASSERT_FALSE(gate.Remove(seqs.size() + 1, &out));
          }
        } else {
          std::vector<AdmissionGate::Entry> drained = gate.Drain();
          std::sort(drained.begin(), drained.end(), PopOrder());
          ASSERT_EQ(drained.size(), model.size());
          ASSERT_TRUE(std::equal(drained.begin(), drained.end(),
                                 model.begin(),
                                 [](const auto& a, const auto& b) {
                                   return a.seq == b.seq;
                                 }));
          model.clear();
        }
        ASSERT_EQ(gate.size(), model.size());
      }
      while (!model.empty()) {
        ASSERT_EQ(gate.PopBest().seq, model.begin()->seq);
        model.erase(model.begin());
      }
      EXPECT_TRUE(gate.empty());
    }
  }
}

// ---------------------------------------------------------------------
// Scenario-driven engine runs through the gate.

// A 2x2 cluster whose offered load far exceeds the MPL-capped service
// capacity, so the gate is exercised hard. [run] is appended per test.
constexpr char kOverloadBase[] = R"(
[scenario]
name = overload-unit

[engine]
user_sites = 2
data_sites = 2
items = 32
delay_ms = 2
jitter_ms = 1
seed = 11

[policy]
kind = fixed
protocol = 2pl

[class main]
txns = 400
rate = 2000
size = 2..3
read_fraction = 0.5
compute_ms = 2
deadline_ms = 80
)";

ScenarioSpec OverloadSpec(const std::string& run_section) {
  auto spec = ScenarioSpec::Parse(std::string(kOverloadBase) + run_section);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(*spec);
}

RunReport RunSpec(const ScenarioSpec& spec) {
  RunRequest request;
  request.spec = &spec;
  auto session = RunSession::Create(std::move(request));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return RunReport{};
  return (*session)->Run();
}

// Every transaction offered to an overloaded run ends exactly once:
// committed, expired, or shed without a retry budget left (each retried
// shed re-enters, so it is not terminal).
void ExpectAccountsFor(const runner::RunStats& st, std::uint64_t txns) {
  EXPECT_EQ(st.committed + st.expired + (st.shed - st.retried), txns)
      << "committed=" << st.committed << " expired=" << st.expired
      << " shed=" << st.shed << " retried=" << st.retried;
}

TEST(OverloadRunTest, DropNewestShedsAndStaysSafe) {
  const ScenarioSpec spec = OverloadSpec(
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = drop_newest\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.committed, 0u);
  EXPECT_EQ(r.stats.retried, 0u);  // no retry budget configured
  EXPECT_TRUE(r.stats.serializable);
  EXPECT_TRUE(r.stats.replicas_consistent);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, DeadlinePolicyExpiresLateWork) {
  // A budget tight enough that contended work cannot always make it even
  // once admitted, so the in-flight/parked expiry paths fire (with the
  // 80 ms default, the bounded queue keeps waits short and nothing
  // expires — that is the plateau the gate is for).
  std::string base(kOverloadBase);
  const std::size_t at = base.find("deadline_ms = 80");
  ASSERT_NE(at, std::string::npos);
  base.replace(at, std::string("deadline_ms = 80").size(),
               "deadline_ms = 25");
  auto parsed = ScenarioSpec::Parse(
      base +
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = deadline\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec spec = std::move(*parsed);
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.expired, 0u);  // the 80 ms budget bites under 5x load
  EXPECT_LE(r.stats.goodput, r.stats.committed);
  EXPECT_TRUE(r.stats.serializable);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, RetriesReenterWithBackoff) {
  const ScenarioSpec spec = OverloadSpec(
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
      "shed_policy = drop_oldest\nretry_limit = 2\n"
      "retry_ms = 5\nretry_max_ms = 20\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.stats.shed, 0u);
  EXPECT_GT(r.stats.retried, 0u);
  EXPECT_LE(r.stats.retried, r.stats.shed);
  EXPECT_TRUE(r.stats.serializable);
  ExpectAccountsFor(r.stats, 400);
}

TEST(OverloadRunTest, ShedAndExpiryPathsAreDeterministic) {
  for (const char* policy : {"drop_newest", "drop_oldest", "deadline"}) {
    const std::string run =
        "\n[run]\nmax_inflight = 4\nqueue_limit = 8\nshed_policy = " +
        std::string(policy) +
        "\nretry_limit = 1\nretry_ms = 5\nretry_max_ms = 20\n";
    const ScenarioSpec spec = OverloadSpec(run);
    const RunReport a = RunSpec(spec);
    const RunReport b = RunSpec(spec);
    EXPECT_EQ(a.stats.committed, b.stats.committed) << policy;
    EXPECT_EQ(a.stats.shed, b.stats.shed) << policy;
    EXPECT_EQ(a.stats.expired, b.stats.expired) << policy;
    EXPECT_EQ(a.stats.retried, b.stats.retried) << policy;
    EXPECT_EQ(a.stats.goodput, b.stats.goodput) << policy;
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << policy;
    EXPECT_EQ(a.stats.total_messages, b.stats.total_messages) << policy;
  }
}

TEST(OverloadRunTest, BlockModeIsUntouchedByOverloadMachinery) {
  // Without a shed policy the gate never engages: the run is the exact
  // pre-overload-control MPL behavior — everything eventually commits.
  const ScenarioSpec spec = OverloadSpec("\n[run]\nmax_inflight = 4\n");
  const RunReport r = RunSpec(spec);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.stats.committed, 400u);
  EXPECT_EQ(r.stats.shed, 0u);
  EXPECT_EQ(r.stats.expired, 0u);
  EXPECT_EQ(r.stats.retried, 0u);
  EXPECT_TRUE(r.stats.serializable);
}

// ---------------------------------------------------------------------
// Validation of the new scenario keys.

TEST(OverloadConfigTest, ClassKeysParse) {
  auto spec = ScenarioSpec::Parse(std::string(kOverloadBase) +
                                  "priority = 3\n[run]\nmax_inflight = 4\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->classes.size(), 1u);
  EXPECT_EQ(spec->classes[0].priority, 3u);
  EXPECT_EQ(spec->classes[0].deadline, 80 * kMillisecond);
}

TEST(OverloadConfigTest, RejectsUnknownShedPolicyToken) {
  auto spec = ScenarioSpec::Parse(
      std::string(kOverloadBase) +
      "\n[run]\nmax_inflight = 4\nqueue_limit = 8\nshed_policy = lifo\n");
  EXPECT_FALSE(spec.ok());
}

TEST(OverloadConfigTest, DeadlinePolicyNeedsADeadlinedClass) {
  // Same scenario minus the class deadline: shedding by deadline has
  // nothing to order by.
  std::string base(kOverloadBase);
  const std::size_t at = base.find("deadline_ms = 80\n");
  ASSERT_NE(at, std::string::npos);
  base.erase(at, std::string("deadline_ms = 80\n").size());
  auto spec = ScenarioSpec::Parse(
      base + "\n[run]\nmax_inflight = 4\nqueue_limit = 8\n"
             "shed_policy = deadline\n");
  EXPECT_FALSE(spec.ok());
}

TEST(OverloadConfigTest, GateKnobsRequireAnEngagedGate) {
  // queue_limit without a shed policy is dead configuration; so is a
  // retry budget. Both are rejected rather than silently ignored.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "retry_limit = 1\nretry_ms = 5\n")
                   .ok());
  // A shed policy without a queue (or without an MPL cap) is equally
  // meaningless.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "shed_policy = drop_newest\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nqueue_limit = 8\n"
                                   "shed_policy = drop_newest\n")
                   .ok());
}

TEST(OverloadConfigTest, RetryKnobsValidate) {
  // retry_limit without a base delay, and a cap below the base delay.
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n"
                                   "shed_policy = drop_newest\n"
                                   "retry_limit = 1\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(std::string(kOverloadBase) +
                                   "\n[run]\nmax_inflight = 4\n"
                                   "queue_limit = 8\n"
                                   "shed_policy = drop_newest\n"
                                   "retry_limit = 1\nretry_ms = 10\n"
                                   "retry_max_ms = 5\n")
                   .ok());
}

}  // namespace
}  // namespace unicc
