#include "sim/simulator.h"

namespace fastcc::sim {

Time Simulator::run(Time until) {
  while (true) {
    // take_next performs a single ordering lookup per event (the old
    // next_time + pop_and_run pair scanned twice) and hands the callback
    // back un-invoked, so the clock is advanced before the event runs.
    Callback cb;
    const Time next = events_.take_next(until, cb);
    if (next == kNoEventTime) break;
    now_ = next;
    cb();
    ++executed_;
  }
  // A bounded run() leaves the clock at the deadline (whether events remain
  // pending or the queue drained early), so callers can interleave run(t)
  // with direct state changes at known times.
  if (until != std::numeric_limits<Time>::max() && until > now_) {
    now_ = until;
  }
  return now_;
}

}  // namespace fastcc::sim
