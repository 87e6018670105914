// Tests for the event queue and simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace p2pex {
namespace {

Event at(SimTime time, std::uint32_t row = 0) {
  Event e;
  e.time = time;
  e.row = row;
  return e;
}

/// Pops every event; returns their rows in pop order.
std::vector<std::uint32_t> drain(EventQueue& q) {
  std::vector<std::uint32_t> rows;
  while (!q.empty()) rows.push_back(q.pop().row);
  return rows;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(at(3.0, 3));
  q.push(at(1.0, 1));
  q.push(at(2.0, 2));
  EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(q.push(at(1.0, i)), i + 1);
  EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.push(at(5.0));
  q.pop();
  EXPECT_THROW(q.push(at(4.0)), AssertionError);
}

TEST(EventQueue, PeekDoesNotPop) {
  EventQueue q;
  q.push(at(2.5));
  EXPECT_DOUBLE_EQ(q.top().time, 2.5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), AssertionError);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_in(1.5, 0);
  sim.schedule_in(4.0, 0);
  sim.run_until(10.0, [&](const Event&) { fired.push_back(sim.now()); });
  EXPECT_EQ(fired, (std::vector<double>{1.5, 4.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool late_fired = false;
  const auto fire = [&](const Event&) { late_fired = true; };
  sim.schedule_in(5.0, 0);
  sim.run_until(4.0, fire);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.run_until(6.0, fire);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, /*kind=*/1);
  sim.run_until(5.0, [&](const Event& e) {
    ++fired;
    if (e.kind == 1) sim.schedule_in(1.0, /*kind=*/0);
  });
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicFiresRepeatedlyAndStopsAtHorizon) {
  Simulator sim;
  std::vector<double> ticks;
  const auto tick = [&](const Event&) { ticks.push_back(sim.now()); };
  sim.schedule_periodic(1.0, 0);
  sim.run_until(5.5, tick);
  EXPECT_EQ(ticks, (std::vector<double>{1, 2, 3, 4, 5}));
  // The occurrence at 6 parked past the 5.5 horizon; the next run
  // re-arms it at exactly that instant.
  ticks.clear();
  sim.run_until(7.0, tick);
  EXPECT_EQ(ticks, (std::vector<double>{6, 7}));
}

TEST(Simulator, SlicedRunFiresPeriodicsAtStraightRunInstants) {
  // (kind, instant) of every periodic firing up to 40 s, run through
  // `cuts`. Sorted: only the instants must agree, since a re-armed
  // occurrence takes a fresh seq and can move among same-instant events.
  const auto firings = [](const std::vector<SimTime>& cuts) {
    Simulator sim;
    sim.schedule_periodic(0.75, 1);
    sim.schedule_periodic(2.0, 2);
    sim.schedule_in(6.0, 0);  // shares an instant with both periodics
    std::vector<std::pair<std::uint8_t, SimTime>> out;
    for (const SimTime t : cuts)
      sim.run_until(t, [&](const Event& e) {
        if (e.periodic != Event::kOneShot) out.emplace_back(e.kind, sim.now());
      });
    std::sort(out.begin(), out.end());
    return out;
  };
  // Quarter-second cuts, so many land exactly on a periodic instant.
  std::vector<SimTime> slices;
  for (int i = 1; i <= 160; ++i) slices.push_back(0.25 * i);
  const auto straight = firings({40.0});
  EXPECT_EQ(straight.size(), 53u + 20u);  // floor(40/0.75) + 40/2
  EXPECT_EQ(firings(slices), straight);
}

TEST(Simulator, CancelPendingEvent) {
  // There is no cancel call: the owner keeps the seq of the event it
  // still wants, and its dispatch drops any other on arrival.
  Simulator sim;
  const std::uint64_t superseded = sim.schedule_in(2.0, 0);
  const std::uint64_t pending = sim.schedule_in(3.0, 0);
  EXPECT_NE(superseded, 0u);
  EXPECT_NE(pending, superseded);
  std::vector<double> fired;
  std::vector<double> dropped;
  sim.run_until(5.0, [&](const Event& e) {
    (e.seq == pending ? fired : dropped).push_back(sim.now());
  });
  EXPECT_EQ(fired, (std::vector<double>{3.0}));
  EXPECT_EQ(dropped, (std::vector<double>{2.0}));
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-1.0, 0), AssertionError);
}

}  // namespace
}  // namespace p2pex
