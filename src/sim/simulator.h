// Simulator: the discrete-event loop driving a fastcc simulation.
//
// A Simulator owns the clock and the event queue.  Components hold a
// reference to it and schedule callbacks; run() drains events in timestamp
// order until the queue empties or a deadline passes.
//
// Flow starts bypass the queue through a start lane: a start-time-sorted
// vector of (time, flow index) walked by a cursor, merged ahead of the
// queue by run().  An experiment knows all its starts before the run, and
// pushing thousands of Poisson arrivals into the calendar queue at t = 0
// sized its days from arrival gaps instead of packet gaps (see
// set_start_lane()).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace fastcc::sim {

class Simulator {
 public:
  /// Event-queue backend.  Both implementations are property-tested to pop
  /// identical (time, FIFO) sequences, so swapping this alias cannot change
  /// simulation results — only wall-clock speed.  The calendar queue's O(1)
  /// schedule/pop wins on the bounded-horizon pattern simulations produce
  /// (~1.9x on the rolling-horizon microbenchmark vs the 4-ary heap); its
  /// historical weakness — bimodal near-term-packet / far-future-RTO time
  /// mixes collapsing the bucket-width calibration — is fixed by the
  /// median-gap estimator in CalendarQueue::rebuild.
  using Queue = CalendarQueue;
  using Callback = Queue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (must be >= now()).
  EventId at(Time when, Callback cb) {
    assert(when >= now_ && "cannot schedule into the past");
    return events_.schedule(when, std::move(cb));
  }

  /// Schedules `cb` after a relative delay (must be >= 0).
  EventId after(Time delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  bool cancel(EventId id) { return events_.cancel(id); }

  /// One start-lane entry: flow `index` starts at `at`.
  struct Start {
    Time at;
    std::size_t index;
  };
  using StartFn = std::function<void(std::size_t index)>;

  /// Installs the start lane: run() calls `start(index)` at each entry's
  /// time, one executed event per entry.  Entries are stably sorted by
  /// time, so equal-time starts run in the order given, and a start runs
  /// before every queued event at its timestamp.  That is the order at()
  /// gives starts scheduled before anything else.  Set once, before the
  /// first run(); every entry must be at or after now().
  void set_start_lane(std::vector<Start> starts, StartFn start);

  /// True when neither the queue nor the start lane holds anything.
  bool empty() const {
    return events_.empty() && lane_pos_ == lane_.size();
  }

  /// Time of the earliest queued event or pending start.  Precondition:
  /// !empty().
  Time next_time() {
    const Time start =
        lane_pos_ < lane_.size() ? lane_[lane_pos_].at : kMaxTime;
    return events_.empty() ? start : std::min(start, events_.next_time());
  }

  /// Runs until the queue and start lane are empty or the clock passes
  /// `until`.  Events stamped exactly `until` still run.  Returns the final
  /// clock.
  Time run(Time until = std::numeric_limits<Time>::max());

  /// Number of events executed so far, starts included (instrumentation /
  /// perf tests).
  std::uint64_t events_executed() const { return executed_; }

  const Queue& queue() const { return events_; }

 private:
  Queue events_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Start> lane_;
  std::size_t lane_pos_ = 0;
  StartFn start_;
};

}  // namespace fastcc::sim
