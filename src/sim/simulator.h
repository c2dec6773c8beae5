// Simulator: the discrete-event loop driving a fastcc simulation.
//
// A Simulator owns the clock and the event queue.  Components hold a
// reference to it and schedule callbacks; run() drains events in timestamp
// order until the queue empties or a deadline passes.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

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

  /// Runs until the event queue is empty or the clock passes `until`.
  /// Events stamped exactly `until` still run.  Returns the final clock.
  Time run(Time until = std::numeric_limits<Time>::max());

  /// Number of events executed so far (instrumentation / perf tests).
  std::uint64_t events_executed() const { return executed_; }

  Queue& queue() { return events_; }

 private:
  Queue events_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace fastcc::sim
