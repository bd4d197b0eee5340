#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/function.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace moteur::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  double inner_time = -1;
  sim.schedule(1.0, [&] {
    sim.schedule(2.0, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&] { ++count; });
  }
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RunUntilAdvancesTheClockToTheHorizonWhenTheQueueDrains) {
  Simulator sim;
  int count = 0;
  for (double t : {1.0, 2.0}) {
    sim.schedule(t, [&] { ++count; });
  }
  sim.run_until(5.0);
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // not 2.0, the last event's time
}

TEST(Simulator, StaleIdCannotCancelAnEventThatReusesItsSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  const EventId cancelled = sim.schedule(1.0, [&] { ++first; });
  ASSERT_TRUE(sim.cancel(cancelled));
  const EventId reuser = sim.schedule(1.0, [&] { ++second; });
  // Same slot (the low 32 bits), new generation.
  ASSERT_EQ(static_cast<std::uint32_t>(reuser), static_cast<std::uint32_t>(cancelled));
  ASSERT_NE(reuser, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending_events(), 1u);

  // Likewise for the id of an event that already ran.
  sim.run();
  const EventId ran = reuser;
  const EventId next = sim.schedule(1.0, [&] { ++second; });
  ASSERT_EQ(static_cast<std::uint32_t>(next), static_cast<std::uint32_t>(ran));
  EXPECT_FALSE(sim.cancel(ran));
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 2);
  EXPECT_FALSE(sim.cancel(0));  // never an id
}

TEST(Simulator, CancelReleasesTheCallbackCapturesAtOnce) {
  Simulator sim;
  const auto captured = std::make_shared<int>(7);
  const EventId id = sim.schedule(1.0, [captured] { ++*captured; });
  EXPECT_EQ(captured.use_count(), 2);
  ASSERT_TRUE(sim.cancel(id));
  EXPECT_EQ(captured.use_count(), 1);  // before the tombstone leaves the heap
  sim.run();
  EXPECT_EQ(*captured, 7);
}

/// A callable too large for a Function's inline buffer that counts its runs
/// and the destruction of every instance that was not moved from.
struct OversizedCallable {
  std::array<char, 4 * kInlineCallableBytes> payload{};
  int* runs;
  int* destroyed;
  bool owner = true;

  OversizedCallable(int* runs_out, int* destroyed_out)
      : runs(runs_out), destroyed(destroyed_out) {}
  OversizedCallable(OversizedCallable&& other) noexcept
      : payload(other.payload), runs(other.runs), destroyed(other.destroyed) {
    other.owner = false;
  }
  OversizedCallable(const OversizedCallable&) = delete;
  ~OversizedCallable() {
    if (owner) ++*destroyed;
  }
  void operator()() { ++*runs; }
};

TEST(Simulator, OversizedCallableRunsOnceAndIsDestroyedOnce) {
  static_assert(sizeof(OversizedCallable) > kInlineCallableBytes);
  Simulator sim;
  int runs = 0;
  int destroyed = 0;
  sim.schedule(1.0, OversizedCallable(&runs, &destroyed));
  EXPECT_EQ(destroyed, 0);
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);

  // Cancelled instead of run: destroyed once, never run.
  const EventId id = sim.schedule(1.0, OversizedCallable(&runs, &destroyed));
  ASSERT_TRUE(sim.cancel(id));
  EXPECT_EQ(destroyed, 2);
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), InternalError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), InternalError);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 10u);
}

TEST(Resource, GrantsUpToCapacityImmediately) {
  Simulator sim;
  Resource res(sim, 2);
  int granted = 0;
  res.acquire([&] { ++granted; });
  res.acquire([&] { ++granted; });
  res.acquire([&] { ++granted; });  // queued
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(res.in_use(), 2u);
  EXPECT_EQ(res.queue_length(), 1u);
}

TEST(Resource, ReleaseHandsSlotToOldestWaiterFifo) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> order;
  res.acquire([&] { order.push_back(0); });
  res.acquire([&] { order.push_back(1); });
  res.acquire([&] { order.push_back(2); });
  res.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  res.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  res.release();
  EXPECT_EQ(res.in_use(), 0u);
}

/// Queue waiters numbered `first` .. `first + count - 1` on `res`; each
/// records its number when granted.
void queue_waiters(Resource& res, std::vector<int>& order, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    res.acquire([&order, i] { order.push_back(i); });
  }
}

/// Hand the held slot on `times` times, running each grant.
void hand_on(Simulator& sim, Resource& res, int times) {
  for (int i = 0; i < times; ++i) {
    res.release();
    sim.run();
  }
}

// The waiter ring starts with 8 entries and doubles when full. Six waiters,
// four granted, leave its head at entry 4; five more wrap past the end.
TEST(Resource, KeepsFifoOrderWhenItsRingWraps) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> order;
  res.acquire([] {});  // holds the only slot
  queue_waiters(res, order, 0, 6);
  hand_on(sim, res, 4);
  queue_waiters(res, order, 6, 5);
  EXPECT_EQ(res.queue_length(), 7u);
  hand_on(sim, res, 7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(res.queue_length(), 0u);
  EXPECT_EQ(res.in_use(), 1u);
}

// As above, but eight more waiters fill the ring with its head at entry 4,
// so it grows while wrapped and must unroll the waiters in order.
TEST(Resource, KeepsFifoOrderWhenItGrowsWithItsHeadMidBuffer) {
  Simulator sim;
  Resource res(sim, 1);
  std::vector<int> order;
  res.acquire([] {});
  queue_waiters(res, order, 0, 6);
  hand_on(sim, res, 4);
  queue_waiters(res, order, 6, 8);
  EXPECT_EQ(res.queue_length(), 10u);
  queue_waiters(res, order, 14, 10);  // and a second growth from the start
  hand_on(sim, res, 20);
  std::vector<int> expected;
  for (int i = 0; i < 24; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  Resource res(sim, 1);
  EXPECT_THROW(res.release(), InternalError);
}

TEST(Resource, SimulatesQueueingDelay) {
  // Two 10-second holders on a 1-slot resource: second starts at t=10.
  Simulator sim;
  Resource res(sim, 1);
  std::vector<double> start_times;
  for (int i = 0; i < 2; ++i) {
    res.acquire([&] {
      start_times.push_back(sim.now());
      sim.schedule(10.0, [&] { res.release(); });
    });
  }
  sim.run();
  ASSERT_EQ(start_times.size(), 2u);
  EXPECT_DOUBLE_EQ(start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(start_times[1], 10.0);
}

}  // namespace
}  // namespace moteur::sim
