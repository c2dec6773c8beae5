#include "sim/simulator.h"

#include <algorithm>

namespace fastcc::sim {

void Simulator::set_start_lane(std::vector<Start> starts, StartFn start) {
  assert(lane_pos_ == lane_.size() && "start lane set twice");
  std::stable_sort(starts.begin(), starts.end(),
                   [](const Start& a, const Start& b) { return a.at < b.at; });
  assert((starts.empty() || starts.front().at >= now_) &&
         "cannot start a flow in the past");
  lane_ = std::move(starts);
  lane_pos_ = 0;
  start_ = std::move(start);
}

Time Simulator::run(Time until) {
  while (true) {
    // Queued events run up to the lane head, exclusive: a start wins ties
    // at its timestamp.  The bound moves only when the lane advances, so
    // the per-event loop below is the plain queue drain.
    const bool start_due =
        lane_pos_ < lane_.size() && lane_[lane_pos_].at <= until;
    const Time bound = start_due ? lane_[lane_pos_].at - 1 : until;
    while (true) {
      // take_next performs a single ordering lookup per event (the old
      // next_time + pop_and_run pair scanned twice) and hands the callback
      // back un-invoked, so the clock is advanced before the event runs.
      Callback cb;
      const Time next = events_.take_next(bound, cb);
      if (next == kNoEventTime) break;
      now_ = next;
      cb();
      ++executed_;
    }
    if (!start_due) break;
    const Start start = lane_[lane_pos_++];
    now_ = start.at;
    start_(start.index);
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
