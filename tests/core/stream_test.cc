// ArrivalStream contract tests: the vector adapter, the pump helper, the
// scenario stream's equivalence with BuildWorkload — the property that
// lets the open-system engine admit the exact same workload the
// closed-batch paths pre-materialize — and a class opened on its own
// drawing what the scenario stream draws for it.
#include "workload/stream.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "../test_util.h"
#include "scenario/scenario.h"
#include "workload/trace.h"

namespace unicc {
namespace {

using test::Drain;

std::vector<Arrival> ThreeArrivals() {
  std::vector<Arrival> v(3);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i].when = (i + 1) * 100;
    v[i].spec.id = i + 1;
    v[i].spec.read_set = {static_cast<ItemId>(i)};
  }
  return v;
}

TEST(VectorStreamTest, YieldsArrivalsInOrderThenExhausts) {
  auto stream = MakeVectorStream(ThreeArrivals());
  Arrival a;
  for (TxnId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(stream->Next(&a));
    EXPECT_EQ(a.spec.id, id);
    EXPECT_EQ(a.when, id * 100);
  }
  EXPECT_FALSE(stream->Next(&a));
  // Streams are single-pass: exhaustion is final, and a failed Next()
  // leaves the output untouched.
  EXPECT_FALSE(stream->Next(&a));
  EXPECT_EQ(a.spec.id, 3u);
}

TEST(VectorStreamTest, EmptyVectorIsImmediatelyExhausted) {
  auto stream = MakeVectorStream({});
  Arrival a;
  EXPECT_FALSE(stream->Next(&a));
}

TEST(PumpStreamTest, VisitsEveryArrivalInOrderWithoutMaterializing) {
  auto stream = MakeVectorStream(ThreeArrivals());
  std::vector<TxnId> seen;
  const std::uint64_t pumped =
      PumpStream(*stream, [&seen](const Arrival& a) {
        seen.push_back(a.spec.id);
      });
  EXPECT_EQ(pumped, 3u);
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 2, 3}));
  // The stream is drained: PumpStream consumed it to exhaustion.
  Arrival a;
  EXPECT_FALSE(stream->Next(&a));
}

TEST(ScenarioStreamTest, OpenMatchesBuildWorkload) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 48\nseed = 11\n"
      "[class alpha]\ntxns = 120\nrate = 60\nsize = 2..4\n"
      "[class beta]\ntxns = 80\nrate = 30\nstart_ms = 500\naccess = zipf\n"
      "theta = 0.9\nprotocol = pa\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  const ScenarioSpec::Workload batch = spec->BuildWorkload();
  ScenarioSpec::OpenWorkload open = spec->Open();
  const std::vector<Arrival> lazy = Drain(*open.stream);

  EXPECT_EQ(WorkloadTrace::Serialize(batch.arrivals),
            WorkloadTrace::Serialize(lazy));
  // The forced set fills as the stream emits; after a full drain it must
  // equal the batch set.
  EXPECT_EQ(*batch.forced, *open.forced);
  EXPECT_FALSE(open.forced->empty());
}

// OpenClass runs the generator ScenarioSpec::Open runs for each class: a
// one-class scenario's stream equals its class opened on its own with
// the Rng Open derives for class 0 from engine.seed.
TEST(ScenarioStreamTest, OpenClassMatchesOneClassScenario) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 40\nuser_sites = 3\nseed = 123\n"
      "[class main]\ntxns = 200\nrate = 50\nsize = 2..5\naccess = zipf\n"
      "theta = 0.8\nread_fraction = 0.3\ncompute_ms = 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ScenarioSpec::OpenWorkload open = spec->Open();
  auto alone = OpenClass(spec->classes[0], 40, 3,
                         Rng(123 ^ 0x9e3779b97f4a7c15ull));
  EXPECT_EQ(WorkloadTrace::Serialize(Drain(*open.stream)),
            WorkloadTrace::Serialize(Drain(*alone)));
}

TEST(ScenarioStreamTest, ForcedSetGrowsWithThePull) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class f]\ntxns = 10\nrate = 50\nprotocol = to\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ScenarioSpec::OpenWorkload open = spec->Open();
  EXPECT_TRUE(open.forced->empty());
  Arrival a;
  ASSERT_TRUE(open.stream->Next(&a));
  // The id just emitted is already in the set — admission reads it after
  // the pull, so a forced protocol is never missed.
  EXPECT_EQ(open.forced->count(a.spec.id), 1u);
  EXPECT_EQ(open.forced->size(), 1u);
}

TEST(ScenarioStreamTest, MergeBreaksTiesByClassOrder) {
  // Two classes with identical seeds draw identical gap sequences only if
  // their Rngs collide, which they do not; instead pin determinism the
  // simple way: ids must be assigned 1..N in nondecreasing time order.
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class a]\ntxns = 50\nrate = 40\n"
      "[class b]\ntxns = 50\nrate = 40\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ScenarioSpec::OpenWorkload open = spec->Open();
  Arrival a;
  SimTime prev = 0;
  TxnId expected = 1;
  while (open.stream->Next(&a)) {
    EXPECT_EQ(a.spec.id, expected++);
    EXPECT_GE(a.when, prev);
    prev = a.when;
  }
  EXPECT_EQ(expected, 101u);
}

}  // namespace
}  // namespace unicc
