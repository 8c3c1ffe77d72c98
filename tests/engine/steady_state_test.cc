// Steady state: once warm, the run path allocates nothing per transaction.
// The issuer, the online checker and the engine's deadline map reuse their
// hash-map nodes, the queue managers reuse emptied queues' entry buffers
// and batch admission rebuilds each spec into one reused spec, so after
// warm-up a run's allocations stop growing with the commits it makes.
//
// This test binary replaces global operator new with a counting version,
// as sim_test does, so a test can count the allocations a stretch of the
// run made.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "engine/builder.h"
#include "engine/engine.h"
#include "workload/stream.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(align, sizeof(void*)), n == 0 ? 1 : n) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return CountedAlloc(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace unicc {
namespace {

TEST(SteadyStateTest, WarmCappedRunAllocatesNothingPerCommit) {
  // 2PL transactions over 16 items, half reads and half writes, every spec
  // with a deadline, offered at about twice what four slots can serve.
  // The MPL cap bounds the work in flight, so queue lengths, held
  // transactions and pending messages have a ceiling that warm-up reaches;
  // a Poisson batch without a cap keeps setting rarer concurrency peaks,
  // and every new peak grows some buffer once. Behind the cap, the
  // shedding gate parks or sheds each arrival, and the engine arms and
  // disarms a deadline event for each admission and each parked entry.
  // Zero jitter and no per-channel spacing deliver every message after
  // exactly the base delay, so each queue orders transactions as they were
  // sent and no deadlock forms without a detector.
  constexpr std::uint64_t kWarmCommits = 5000;
  constexpr std::uint64_t kMeasuredCommits = 5000;
  EngineOptions eo = test::SmallEngine(11);
  eo.num_items = 16;
  eo.network.fifo_per_channel = false;
  eo.detector = DetectorKind::kNone;
  eo.run.shed_policy = ShedPolicy::kDropNewest;
  eo.run.queue_limit = 4;
  eo.run.max_inflight = 4;
  ScenarioClass wo = test::SmallWorkload(20000);
  wo.rate = 300;
  wo.deadline = 10 * kSecond;
  std::vector<Arrival> arrivals = test::DrawClass(wo, eo, Rng(11));

  std::uint64_t commits = 0;
  std::uint64_t warm_allocations = 0;
  std::uint64_t measured_allocations = 0;
  EngineCallbacks callbacks;
  callbacks.on_commit = [&](const TxnResult&) {
    ++commits;
    if (commits == kWarmCommits) warm_allocations = g_allocations.load();
    if (commits == kWarmCommits + kMeasuredCommits) {
      measured_allocations = g_allocations.load() - warm_allocations;
    }
  };
  const auto engine =
      EngineBuilder(eo)
          .WithCallbacks(callbacks)
          .WithArrivalStream(MakeVectorStream(std::move(arrivals)))
          .Build()
          .value();
  const RunSummary s = engine->Run();
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  ASSERT_GE(s.committed, kWarmCommits + kMeasuredCommits);
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(measured_allocations, 0u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
  EXPECT_EQ(engine->log().Held(), 0u);
}

// A closed batch: queueing N time-ordered arrivals copies no block per
// spec (the FIFO holds fixed-size records and one item pool, so it grows a
// deque block per 7 records and per 128 items), and once warm, admitting
// them, rebuilding each spec into the engine's reused one, allocates
// nothing. The arrivals are 100 ms apart, so each commits before the next
// arrives and the run never sets a new concurrency peak.
TEST(SteadyStateTest, BatchQueuesPerBlockAndWarmAdmissionAllocatesNothing) {
  constexpr std::uint64_t kTxns = 20000;
  constexpr std::uint64_t kWarmCommits = 5000;
  EngineOptions eo = test::SmallEngine(19);
  eo.detector = DetectorKind::kNone;
  Rng rng(19);
  std::vector<Arrival> arrivals(kTxns);
  for (std::uint64_t i = 0; i < kTxns; ++i) {
    Arrival& a = arrivals[i];
    a.when = i * 100 * kMillisecond;
    a.spec.id = i + 1;
    a.spec.home = static_cast<SiteId>(rng.UniformInt(eo.num_user_sites));
    a.spec.compute_time = 2 * kMillisecond;
    // Both sets non-empty and disjoint: reads from the low half of the
    // items, writes from the high half.
    const ItemId half = eo.num_items / 2;
    for (ItemId k = 0, n = 1 + rng.UniformInt(3); k < n; ++k) {
      a.spec.read_set.push_back(k * 5 + rng.UniformInt(5));
    }
    for (ItemId k = 0, n = 1 + rng.UniformInt(2); k < n; ++k) {
      a.spec.write_set.push_back(half + k * 5 + rng.UniformInt(5));
    }
  }

  std::uint64_t commits = 0;
  std::uint64_t warm_allocations = 0;
  EngineCallbacks callbacks;
  callbacks.on_commit = [&](const TxnResult&) {
    if (++commits == kWarmCommits) warm_allocations = g_allocations.load();
  };
  const auto engine =
      EngineBuilder(eo).WithCallbacks(callbacks).Build().value();
  const std::uint64_t before_queueing = g_allocations.load();
  ASSERT_TRUE(engine->AddWorkload(arrivals).ok());
  const std::uint64_t queueing = g_allocations.load() - before_queueing;
  // A copy per spec would make at least two allocations (both sets).
  EXPECT_LT(queueing, kTxns / 4);
  const RunSummary s = engine->Run();
  const std::uint64_t after_warm = g_allocations.load() - warm_allocations;
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  ASSERT_EQ(s.committed, kTxns);
  EXPECT_EQ(after_warm, 0u);
  EXPECT_TRUE(engine->CheckSerializability().serializable);
}

}  // namespace
}  // namespace unicc
