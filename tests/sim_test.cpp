// Unit tests of the discrete-event simulator: ordering, determinism,
// cancellation, quiescence.
#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace caa::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // double cancel
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_after(100, [&] { seen = sim.now(); });
  sim.run_to_quiescence();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_after(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run_to_quiescence();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(10, [&] { ++fired; });
  sim.schedule_after(100, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_quiescence();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(i % 7, [&order, i] { order.push_back(i); });
    }
    sim.run_to_quiescence();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(Simulator, CountersAccumulate) {
  Simulator sim;
  const CounterId foo = CounterId::of("sim_test.foo");
  sim.counters().add(foo, 2);
  sim.counters().add(foo, 3);
  EXPECT_EQ(sim.counters().get(foo), 5);
  // Name-based reads (tests/debugging) go through the metrics facade.
  EXPECT_EQ(sim.obs().metrics().value("sim_test.foo"), 5);
}

}  // namespace
}  // namespace caa::sim
