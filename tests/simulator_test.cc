#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace fastcc::sim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<Time> seen;
  s.at(100, [&] { seen.push_back(s.now()); });
  s.at(250, [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{100, 250}));
  EXPECT_EQ(s.now(), 250);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  Time inner = -1;
  s.at(40, [&] { s.after(5, [&] { inner = s.now(); }); });
  s.run();
  EXPECT_EQ(inner, 45);
}

TEST(Simulator, RunHonorsDeadlineAndKeepsPendingEvents) {
  Simulator s;
  bool late_ran = false;
  s.at(10, [] {});
  s.at(100, [&] { late_ran = true; });
  s.run(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), 50);  // clock parked at the deadline
  s.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, EventExactlyAtDeadlineRuns) {
  Simulator s;
  bool ran = false;
  s.at(50, [&] { ran = true; });
  s.run(50);
  EXPECT_TRUE(ran);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 17; ++i) s.at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 17u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, SelfReschedulingEventChains) {
  Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 5) s.after(10, [&] { tick(); });
  };
  s.after(10, [&] { tick(); });
  s.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(s.now(), 50);
}

// ---- Start lane ------------------------------------------------------------
// The lane must replay exactly what at() gives starts scheduled before
// anything else: same (time, callback) trace, same executed-event count.

enum class Route { kLane, kAt };

/// Installs `starts` as flow starts calling `start`, either through the
/// lane or as one at() each (in the given order, before anything else).
void install_starts(Simulator& s, Route route,
                    const std::vector<Simulator::Start>& starts,
                    const std::function<void(std::size_t)>& start) {
  if (route == Route::kLane) {
    s.set_start_lane(starts, start);
    return;
  }
  for (const Simulator::Start& st : starts) {
    s.at(st.at, [start, i = st.index] { start(i); });
  }
}

struct Trace {
  std::vector<std::pair<Time, int>> events;  ///< (time, callback id)
  std::vector<Time> stops;  ///< now() after each bounded run
  std::uint64_t executed = 0;

  bool operator==(const Trace&) const = default;
};

/// A random start set on a coarse time grid, so starts tie with each other
/// and with pre-queued events.  Each start records itself and schedules one
/// event at its own timestamp and one a grid step or more later.  The run
/// stops at every time in `stops` before draining.
Trace run_random_starts(Route route, std::uint64_t seed,
                        const std::vector<Time>& stops) {
  constexpr int kStarts = 300;
  constexpr int kQueued = 300;
  Rng rng(seed);
  Simulator s;
  Trace trace;
  auto grid = [&rng] { return 5 * rng.uniform_int(0, 80); };

  std::vector<Simulator::Start> starts;
  for (int i = 0; i < kStarts; ++i) {
    starts.push_back({grid(), static_cast<std::size_t>(i)});
  }
  std::vector<Time> follow_up(kStarts);
  for (Time& d : follow_up) d = grid() / 4;
  auto start = [&](std::size_t i) {
    const int id = static_cast<int>(i);
    trace.events.push_back({s.now(), id});
    s.at(s.now(), [&, id] { trace.events.push_back({s.now(), 10'000 + id}); });
    s.after(follow_up[i], [&, id] {
      trace.events.push_back({s.now(), 20'000 + id});
    });
  };
  install_starts(s, route, starts, start);
  for (int j = 0; j < kQueued; ++j) {
    const Time t = grid();
    s.at(t, [&, j] { trace.events.push_back({s.now(), 30'000 + j}); });
  }
  for (const Time stop : stops) {
    s.run(stop);
    trace.stops.push_back(s.now());
  }
  s.run();
  trace.executed = s.events_executed();
  return trace;
}

TEST(SimulatorStartLane, MatchesAtForRandomStartSets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trace lane = run_random_starts(Route::kLane, seed, {});
    const Trace at = run_random_starts(Route::kAt, seed, {});
    EXPECT_EQ(lane.executed, 4u * 300u) << "seed " << seed;
    EXPECT_TRUE(lane == at) << "seed " << seed;
  }
}

TEST(SimulatorStartLane, BoundedRunsStopBetweenLaneEntries) {
  // Stops on the grid (a bound equal to a start's time runs that start),
  // just before it, and between grid points.
  const std::vector<Time> stops = {0, 4, 5, 99, 100, 101, 251, 255, 398, 400};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trace lane = run_random_starts(Route::kLane, seed, stops);
    const Trace at = run_random_starts(Route::kAt, seed, stops);
    EXPECT_EQ(lane.stops, stops) << "seed " << seed;
    EXPECT_TRUE(lane == at) << "seed " << seed;
  }
}

TEST(SimulatorStartLane, StartsRunBeforeQueuedEventsAtTheirTime) {
  Simulator s;
  std::vector<int> order;
  s.set_start_lane({{10, 0}, {10, 1}},
                   [&](std::size_t i) {
                     order.push_back(static_cast<int>(i));
                     // Scheduled at the start's own timestamp: runs after
                     // every start at that time.
                     s.at(s.now(), [&, i] {
                       order.push_back(100 + static_cast<int>(i));
                     });
                   });
  s.at(10, [&] { order.push_back(50); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 50, 100, 101}));
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(SimulatorStartLane, NextTimeAndEmptinessCoverTheLane) {
  Simulator s;
  std::vector<std::size_t> started;
  // Given out of order: the lane sorts stably by time.
  s.set_start_lane({{30, 0}, {10, 1}, {30, 2}},
                   [&](std::size_t i) { started.push_back(i); });
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.next_time(), 10);  // only the lane is pending
  s.at(20, [] {});
  EXPECT_EQ(s.next_time(), 10);
  s.run(15);
  EXPECT_EQ(s.next_time(), 20);
  s.run(25);
  ASSERT_FALSE(s.empty());  // the queue is empty; two starts remain
  EXPECT_EQ(s.next_time(), 30);
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 0, 2}));
  EXPECT_EQ(s.events_executed(), 4u);
}

// ---- Calendar day size under a start burst ----------------------------------
// An experiment's flow starts are thousands of Poisson arrivals over about a
// millisecond, each driving packet-rate traffic.  Queued up front, they set
// the calendar's day width from arrival gaps, hundreds of times the packet
// gap, so every extracted day holds hundreds of packet events.

struct DaySizes {
  std::uint64_t days = 0;
  std::uint64_t entries = 0;
  double mean() const {
    return static_cast<double>(entries) / static_cast<double>(days);
  }
};

/// A flow's packets: one transmission per 80 ns (1 KB at 100 Gbps), each
/// delivered one 1 us propagation delay later.
struct PacketTrain {
  Simulator* sim;
  int left;
  void operator()() const {
    sim->after(1 * kMicrosecond, [] {});
    if (left > 1) sim->after(80, PacketTrain{sim, left - 1});
  }
};

DaySizes bursty_start_day_sizes(Route route) {
  constexpr int kFlows = 3000;
  Rng rng(11);
  std::vector<Simulator::Start> starts;
  std::vector<int> packets;
  double t = 0.0;
  for (int i = 0; i < kFlows; ++i) {
    t += rng.exponential(333.0);  // 3000 arrivals over ~1 ms
    starts.push_back({static_cast<Time>(t), static_cast<std::size_t>(i)});
    packets.push_back(static_cast<int>(rng.uniform_int(20, 200)));
  }
  Simulator s;
  install_starts(s, route, starts, [&](std::size_t i) {
    PacketTrain{&s, packets[i]}();
  });
  s.run();
  return {s.queue().days_extracted(), s.queue().day_entries()};
}

TEST(SimulatorStartLane, BurstyStartsKeepCalendarDaysShort) {
  const DaySizes lane = bursty_start_day_sizes(Route::kLane);
  const DaySizes at = bursty_start_day_sizes(Route::kAt);
  EXPECT_LE(lane.mean(), 16.0) << lane.days << " days, " << lane.entries
                               << " entries";
  // Control: the same starts through the queue mis-size the days, so the
  // bound above is what the lane buys.
  EXPECT_GT(at.mean(), 16.0) << at.days << " days, " << at.entries
                             << " entries";
}

}  // namespace
}  // namespace fastcc::sim
