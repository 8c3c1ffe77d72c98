#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/event_fn.h"
#include "common/rng.h"

// Every heap allocation in this test binary, so a test can assert that a
// stretch of simulation made none.
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

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, TiesResolveInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(10, [&] { order.push_back(2); });
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, NestedSchedulingRunsAtCorrectTime) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(5, [&] {
    sim.Schedule(7, [&] { inner_time = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(inner_time, 12u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.RunToCompletion();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(20, [&] { ++ran; });
  sim.Schedule(21, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  sim.RunToCompletion();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator sim;
  sim.RunUntil(100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.ScheduleAt(42, [&] { seen = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 42u);
}

TEST(SimulatorTest, EventsRunCountsExecutedOnly) {
  Simulator sim;
  sim.Schedule(1, [] {});
  const auto id = sim.Schedule(2, [] {});
  sim.Cancel(id);
  sim.RunToCompletion();
  EXPECT_EQ(sim.EventsRun(), 1u);
}

TEST(SimulatorTest, CancelWhilePendingReleasesCapturesImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const auto id =
      sim.Schedule(10, [token = std::move(token)] { (void)*token; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.Cancel(id));
  // The callback (and its captured state) dies at Cancel(), not when the
  // placeholder is eventually popped.
  EXPECT_TRUE(watch.expired());
  sim.RunToCompletion();
}

TEST(SimulatorTest, CancelAfterRunReturnsFalse) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.Schedule(5, [&] { ran = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.Cancel(id));  // already executed
}

TEST(SimulatorTest, CancelStaleIdOfRecycledSlotReturnsFalse) {
  Simulator sim;
  const auto first = sim.Schedule(1, [] {});
  sim.RunToCompletion();
  // The slot is recycled for the next event; the stale id must not be able
  // to cancel the new tenant.
  const auto second = sim.Schedule(1, [] {});
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_TRUE(sim.Cancel(second));
}

TEST(SimulatorTest, PendingEventsExcludesCancelledPlaceholders) {
  Simulator sim;
  sim.Schedule(10, [] {});
  const auto a = sim.Schedule(20, [] {});
  const auto b = sim.Schedule(30, [] {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.Cancel(a);
  sim.Cancel(b);
  // Regression: the cancelled placeholders are still queued internally but
  // must not be reported as pending work.
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunUntilRunsEventExactlyAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(20, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(20), 1u);  // timestamp == until still runs
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 20u);
}

TEST(SimulatorTest, RunUntilTieBreaksInSchedulingOrderAtBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(20, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Schedule(21, [&] { order.push_back(3); });
  sim.RunUntil(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // The clock must hold at the last executed event while live events
  // remain beyond `until`.
  EXPECT_EQ(sim.Now(), 20u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesPastCancelledResidue) {
  Simulator sim;
  const auto a = sim.Schedule(10, [] {});
  const auto b = sim.Schedule(200, [] {});
  sim.Cancel(a);
  sim.Cancel(b);
  // Only cancelled placeholders remain: RunUntil must treat the queue as
  // empty and advance the clock all the way to `until`.
  EXPECT_EQ(sim.RunUntil(100), 0u);
  EXPECT_EQ(sim.Now(), 100u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunUntilHoldsClockWhenLiveEventsRemain) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(200, [&] { ++ran; });
  sim.RunUntil(100);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 10u);  // not 100: a live event still waits at 200
}

TEST(SimulatorTest, RunUntilLeavesRoomBeforeAStoppedTop) {
  // RunUntil(100) stops before the live event at 200 and frees the
  // cancelled placeholder at 150 on the way. Neither may move the queue's
  // ordering base past 100: events scheduled afterwards at 120 must still
  // run before 200, and in scheduling order.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(4); });
  sim.Cancel(sim.Schedule(150, [&] { order.push_back(-1); }));
  EXPECT_EQ(sim.RunUntil(100), 1u);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.NextEventTime(), 200u);  // the placeholder is gone
  const std::size_t slots = sim.ArenaSlots();
  sim.ScheduleAt(120, [&] { order.push_back(2); });
  sim.ScheduleAt(120, [&] { order.push_back(3); });
  // Both reuse freed slots: the one event 1 ran in and the placeholder's.
  EXPECT_EQ(sim.ArenaSlots(), slots);
  EXPECT_EQ(sim.NextEventTime(), 120u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorDeathTest, MaxEventsCapAbortsOnLivelock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto livelock = [] {
    Simulator sim;
    // Self-perpetuating event chain: the cap must abort the run.
    std::function<void()> tick = [&] { sim.Schedule(1, [&] { tick(); }); };
    sim.Schedule(1, [&] { tick(); });
    sim.RunToCompletion(/*max_events=*/1000);
  };
  EXPECT_DEATH(livelock(), "event cap exceeded");
}

TEST(SimulatorTest, ArenaSlotsStaySteadyUnderConstantLoad) {
  Simulator sim;
  std::uint64_t sink = 0;
  auto batch = [&] {
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(static_cast<Duration>(i % 7), [&sink] { ++sink; });
    }
    sim.RunToCompletion();
  };
  batch();
  const std::size_t warm = sim.ArenaSlots();
  for (int r = 0; r < 10; ++r) batch();
  // The zero-allocation property of the schedule/run cycle: constant load
  // must recycle slots, not grow the arena.
  EXPECT_EQ(sim.ArenaSlots(), warm);
}

TEST(SimulatorTest, SteadyLoadAllocatesNothingOnceWarm) {
  // A closed loop of 256 clients, each rescheduling itself at a random
  // delay spanning 1 us to 2^20 us, so keys move through every bucket
  // level; a tenth of the events also arm a timer and cancel it. Once the
  // arena has grown to peak load, the cycle must allocate nothing.
  Simulator sim;
  Rng rng(5);
  std::uint64_t runs = 0;
  auto delay = [&rng] {
    return static_cast<Duration>(
        1 + rng.UniformInt(Duration{1} << rng.UniformInt(21)));
  };
  struct Client {
    Simulator* sim;
    std::uint64_t* runs;
    decltype(delay)* next;
    void operator()() const {
      ++*runs;
      if (*runs % 10 == 0) sim->Cancel(sim->Schedule((*next)(), [] {}));
      sim->Schedule((*next)(), *this);
    }
  };
  static_assert(EventFn::stores_inline<Client>());
  for (int i = 0; i < 256; ++i) {
    sim.Schedule(delay(), Client{&sim, &runs, &delay});
  }
  sim.RunUntil(sim.Now() + (Duration{1} << 24));  // warm up
  const std::uint64_t allocs = g_allocations.load();
  ASSERT_GT(allocs, 0u);  // the counter sees this binary's allocations
  const std::uint64_t warm_runs = runs;
  sim.RunUntil(sim.Now() + (Duration{1} << 26));
  EXPECT_EQ(g_allocations.load() - allocs, 0u);
  EXPECT_GT(runs - warm_runs, 100'000u);
  EXPECT_EQ(sim.PendingEvents(), 256u);
}

TEST(SimulatorTest, ReservedEventBreaksTiesByReservationOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] { order.push_back(1); });  // before the reservation
  const std::uint64_t seq = sim.ReserveSeq();
  sim.Schedule(10, [&] { order.push_back(3); });  // after the reservation
  sim.ScheduleReserved(10, seq, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ReservedEventScheduledFromAnEventKeepsItsPlace) {
  // The engine's batch FIFO pattern: each reserved event schedules the
  // next under its own earlier reservation, ahead of an event scheduled
  // between the reservations and the run.
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t first = sim.ReserveSeq();
  const std::uint64_t second = sim.ReserveSeq();
  sim.Schedule(10, [&] { order.push_back(3); });
  sim.ScheduleReserved(10, first, [&] {
    order.push_back(1);
    sim.ScheduleReserved(10, second, [&] { order.push_back(2); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorDeathTest, ScheduleReservedRejectsNeverDrawnNumber) {
  // Only numbers not drawn yet are caught; reusing a drawn number is the
  // caller's contract (see ScheduleReserved) and is not checked.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto never_drawn = [] {
    Simulator sim;
    sim.Schedule(5, [] {});  // draws 0; 1 is not drawn yet
    sim.ScheduleReserved(10, 1, [] {});
  };
  EXPECT_DEATH(never_drawn(), "never drawn");
}

TEST(SimulatorDeathTest, ScheduleReservedRejectsKeyBeforeRunningEvent) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto backwards = [] {
    Simulator sim;
    const std::uint64_t seq = sim.ReserveSeq();
    // The running event is (10, seq + 1); (10, seq) would pop behind it.
    sim.Schedule(10, [&sim, seq] { sim.ScheduleReserved(10, seq, [] {}); });
    sim.RunToCompletion();
  };
  EXPECT_DEATH(backwards(), "sorts before the running event");
}

// Model-based check of the radix event queue: random schedule / reserve /
// cancel / run interleavings must execute events in exactly the (time, seq)
// order a naive reference queue produces. A reserved event is keyed by the
// number it reserved, not by when it was scheduled. Delays and run slices
// span 0 to 2^20 us, log-uniformly, so keys land in every bucket level.
TEST(SimulatorTest, RandomOpsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim;
    Rng rng(seed * 2654435761ULL + 11);
    std::vector<int> got;
    std::vector<int> want;
    // Reference: ordered map keyed by (when, insertion seq) -> tag.
    using Key = std::pair<SimTime, std::uint64_t>;
    std::map<Key, int> model;
    std::map<int, std::uint64_t> ids;  // tag -> simulator event id
    std::uint64_t seq = 0;
    int next_tag = 0;
    // Reservations not yet used: (simulator number, model seq).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reserved;
    Key last_run{0, 0};  // key of the last event the model ran
    auto span = [&rng] {
      return rng.UniformInt(Duration{1} << rng.UniformInt(21));
    };
    auto run_model_front = [&] {
      last_run = model.begin()->first;
      want.push_back(model.begin()->second);
      model.erase(model.begin());
    };

    for (int step = 0; step < 3000; ++step) {
      const int action = static_cast<int>(rng.UniformInt(100));
      if (action < 45) {
        const Duration delay = span();
        const int tag = next_tag++;
        ids[tag] = sim.Schedule(delay, [&got, tag] { got.push_back(tag); });
        model.emplace(Key{sim.Now() + delay, seq++}, tag);
      } else if (action < 50) {
        reserved.emplace_back(sim.ReserveSeq(), seq++);
      } else if (action < 55 && !reserved.empty()) {
        // Schedule under a random earlier reservation, never behind the
        // event the simulator ran last.
        const std::size_t pick = rng.UniformInt(reserved.size());
        const auto [number, model_seq] = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<long>(pick));
        SimTime when = sim.Now() + span();
        if (Key{when, model_seq} < last_run) ++when;
        const int tag = next_tag++;
        ids[tag] = sim.ScheduleReserved(when, number,
                                        [&got, tag] { got.push_back(tag); });
        model.emplace(Key{when, model_seq}, tag);
      } else if (action < 70 && !model.empty()) {
        // Cancel a random pending event.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(model.size())));
        EXPECT_TRUE(sim.Cancel(ids[it->second]));
        model.erase(it);
      } else if (action < 90) {
        // Run a bounded slice of time.
        const SimTime until = sim.Now() + span();
        sim.RunUntil(until);
        while (!model.empty() && model.begin()->first.first <= until) {
          run_model_front();
        }
      } else {
        sim.RunToCompletion();
        while (!model.empty()) run_model_front();
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      ASSERT_EQ(sim.PendingEvents(), model.size());
    }
    sim.RunToCompletion();
    for (const auto& [key, tag] : model) want.push_back(tag);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(EventFnTest, SmallCapturesStoreInline) {
  std::uint64_t a = 1, b = 2, c = 3;
  auto small = [&a, &b, &c] { a = b + c; };
  static_assert(EventFn::stores_inline<decltype(small)>());
  EventFn fn(std::move(small));
  fn();
  EXPECT_EQ(a, 5u);
}

TEST(EventFnTest, LargeCapturesFallBackToHeap) {
  struct Big {
    std::uint64_t pad[8] = {0};
  };
  Big big;
  std::uint64_t hits = 0;
  auto large = [big, &hits] { hits += big.pad[0] + 1; };
  static_assert(!EventFn::stores_inline<decltype(large)>());
  EventFn fn(std::move(large));
  fn();
  fn();
  EXPECT_EQ(hits, 2u);
}

TEST(EventFnTest, MoveTransfersOwnershipAndEmptiesSource) {
  int calls = 0;
  EventFn fn([&calls] { ++calls; });
  EventFn other = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(other));
  other();
  EXPECT_EQ(calls, 1);
}

TEST(EventFnTest, ResetDestroysCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  EventFn fn([token = std::move(token)] { (void)token; });
  EXPECT_FALSE(watch.expired());
  fn.Reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(fn));
}

}  // namespace
}  // namespace unicc
