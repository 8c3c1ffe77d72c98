// Steady state: once warm, the run path allocates nothing per transaction.
// The issuer, the online checker and the engine's deadline map reuse their
// hash-map nodes, and the queue managers reuse emptied queues' entry
// buffers, so after warm-up a run's allocations stop growing with the
// commits it makes.
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
#include "engine/engine.h"
#include "workload/generator.h"
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
  WorkloadOptions wo = test::SmallWorkload(20000);
  wo.arrival_rate_per_sec = 300;
  std::vector<Arrival> arrivals =
      WorkloadGenerator(wo, eo.num_items, eo.num_user_sites, Rng(11))
          .Generate();
  for (Arrival& a : arrivals) a.spec.deadline = 10 * kSecond;

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
  Engine engine(eo, callbacks);
  engine.SetArrivalStream(MakeVectorStream(std::move(arrivals)));
  const RunSummary s = engine.Run();
  ASSERT_TRUE(s.status.ok()) << s.status.ToString();
  ASSERT_GE(s.committed, kWarmCommits + kMeasuredCommits);
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(measured_allocations, 0u);
  EXPECT_TRUE(engine.CheckSerializability().serializable);
  EXPECT_EQ(engine.log().Held(), 0u);
}

}  // namespace
}  // namespace unicc
