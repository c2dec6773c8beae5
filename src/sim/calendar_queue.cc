#include "sim/calendar_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace fastcc::sim {

CalendarQueue::CalendarQueue(std::size_t initial_buckets, Time initial_width) {
  set_width(initial_width);
  // Power-of-two bucket count enables mask-based hashing.
  std::size_t n = 1;
  while (n < initial_buckets) n <<= 1;
  buckets_.resize(n);
}

void CalendarQueue::set_width(Time width) {
  // Round up to a power of two (at most 2x off the calibrated target, well
  // inside the heuristic's slack) so day extraction compiles to a shift.
  const auto w = std::bit_ceil(
      static_cast<std::uint64_t>(std::max<Time>(width, 1)));
  width_ = static_cast<Time>(w);
  width_shift_ = std::countr_zero(w);
}

void CalendarQueue::drop_dead(std::vector<Entry>& bucket) {
  // An entry physically present whose handle is no longer live was cancelled
  // (pops remove entries eagerly), so it can be reclaimed here lazily.  With
  // no cancellations outstanding there is nothing to look for, and the
  // per-entry slot-pool lookups (a cache miss each) are skipped wholesale.
  if (pending_dead_ == 0) return;
  for (std::size_t i = 0; i < bucket.size();) {
    if (!slots_.is_live(bucket[i].id)) {
      reclaim_at(bucket, i);
    } else {
      ++i;
    }
  }
}

void CalendarQueue::extract_day(std::vector<Entry>& bucket, Time day_start,
                                Time day_end) {
  // One fused pass: cancelled entries are reclaimed in the same sweep that
  // tests day membership, and membership is an interval check against the
  // day's [start, end) window rather than a per-entry division.  In-day
  // entries move wholesale into today_; off-day entries (later laps of the
  // wrapped bucket) stay put.
  for (std::size_t i = 0; i < bucket.size();) {
    if (pending_dead_ != 0 && !slots_.is_live(bucket[i].id)) {
      // Swap-with-back removal re-examines the swapped-in tail at index i.
      reclaim_at(bucket, i);
      continue;
    }
    const Entry& e = bucket[i];
    if (e.at >= day_start && e.at < day_end) {
      today_.push_back(e);
      bucket[i] = bucket.back();
      bucket.pop_back();
      continue;
    }
    ++i;
  }
}

void CalendarQueue::sort_today() {
  // A day holds a handful of entries (the width calibration targets ~3x the
  // median inter-event gap; the fat-tree probe averages ~11 per extracted
  // day), so most sorts are short enough that std::sort's introsort
  // dispatch costs more than the work itself.  Plain insertion sort for
  // short days, std::sort beyond.
  const auto by_time_fifo = [](const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  };
  if (today_.size() <= 16) {
    for (std::size_t i = 1; i < today_.size(); ++i) {
      Entry e = today_[i];
      std::size_t j = i;
      while (j > 0 && by_time_fifo(e, today_[j - 1])) {
        today_[j] = today_[j - 1];
        --j;
      }
      today_[j] = e;
    }
    return;
  }
  std::sort(today_.begin(), today_.end(), by_time_fifo);
}

void CalendarQueue::refill_today() {
  assert(!today_active_ && today_.empty() && today_pos_ == 0);
  assert(slots_.live() > 0);
  // Pops never shrink the table themselves (a per-pop check taxes the hot
  // path for a rare transition); the population-shrink side of the resize
  // heuristic runs here, once per extracted day.
  maybe_resize();
  const std::size_t mask = buckets_.size() - 1;
  // Phase 1: walk day-by-day from the last popped timestamp; the first day
  // holding a live event is extracted wholesale.  Every entry outside the
  // winning day fires at or after its day_end, strictly later than anything
  // inside it, so the extracted-and-sorted array is a prefix of the global
  // pop order.
  std::uint64_t day = static_cast<std::uint64_t>(last_popped_) >> width_shift_;
  for (std::size_t step = 0; step < buckets_.size(); ++step, ++day) {
    const Time day_start = static_cast<Time>(day << width_shift_);
    extract_day(buckets_[static_cast<std::size_t>(day) & mask], day_start,
                day_start + width_);
    if (!today_.empty()) {
      activate_today(day_start);
      return;
    }
  }
  // Phase 2 (sparse population): the next event lies beyond one full lap of
  // days.  Scan everything for the global minimum, then extract its day.
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t min_b = npos, min_i = 0;
  for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
    drop_dead(buckets_[bi]);
    for (std::size_t i = 0; i < buckets_[bi].size(); ++i) {
      const Entry& e = buckets_[bi][i];
      if (min_b == npos || e.at < buckets_[min_b][min_i].at ||
          (e.at == buckets_[min_b][min_i].at &&
           e.seq < buckets_[min_b][min_i].seq)) {
        min_b = bi;
        min_i = i;
      }
    }
  }
  assert(min_b != npos);
  const std::uint64_t min_day =
      static_cast<std::uint64_t>(buckets_[min_b][min_i].at) >> width_shift_;
  const Time day_start = static_cast<Time>(min_day << width_shift_);
  extract_day(buckets_[min_b], day_start, day_start + width_);
  assert(!today_.empty());
  activate_today(day_start);
}

void CalendarQueue::activate_today(Time day_start) {
  sort_today();
  today_start_ = day_start;
  today_end_ = day_start + width_;
  today_active_ = true;
  ++days_extracted_;
  day_entries_ += today_.size();
}

const CalendarQueue::Entry* CalendarQueue::peek_front() {
  while (true) {
    if (slots_.live() == 0) return nullptr;
    if (!today_active_) refill_today();
    // Cancelled-under-the-cursor entries are skipped (and their slots
    // reclaimed) here; extraction only filtered the dead known at scan time.
    while (today_pos_ < today_.size()) {
      const Entry& e = today_[today_pos_];
      if (pending_dead_ != 0 && !slots_.is_live(e.id)) {
        slots_.release(e.id);
        --pending_dead_;
        ++today_pos_;
        continue;
      }
      return &e;
    }
    today_.clear();
    today_pos_ = 0;
    today_active_ = false;
  }
}

void CalendarQueue::insert_today(const Entry& e) {
  // Upper-bound by timestamp over the undrained region: the new entry holds
  // the largest seq issued, so FIFO order among equal timestamps is exactly
  // "after every existing equal entry".
  const auto begin = today_.begin() + static_cast<std::ptrdiff_t>(today_pos_);
  const auto it = std::upper_bound(
      begin, today_.end(), e.at,
      [](Time at, const Entry& x) { return at < x.at; });
  const std::ptrdiff_t front_dist = it - begin;
  const std::ptrdiff_t back_dist = today_.end() - it;
  if (today_pos_ > 0 && front_dist < back_dist) {
    // The drained slots before the cursor are free space, and in-day
    // schedules land near the cursor (they fire between "now" and day end),
    // so shifting the short undrained prefix one slot left is far cheaper
    // than vector::insert moving the day's whole tail.
    std::move(begin, it, begin - 1);
    *(it - 1) = e;
    --today_pos_;
  } else {
    today_.insert(it, e);
  }
}

void CalendarQueue::flush_today() {
  for (std::size_t i = today_pos_; i < today_.size(); ++i) {
    buckets_[bucket_of(today_[i].at)].push_back(today_[i]);
  }
  today_.clear();
  today_pos_ = 0;
  today_active_ = false;
}

Time CalendarQueue::next_time() {
  assert(!empty());
  const Entry* front = peek_front();
  assert(front != nullptr);
  return front->at;
}

Time CalendarQueue::pop_and_run() {
  assert(!empty());
  Callback cb;
  const Time at = take_next(std::numeric_limits<Time>::max(), cb);
  assert(at != kNoEventTime);
  cb();
  return at;
}

void CalendarQueue::rebuild(std::size_t new_bucket_count) {
  // Entries relocate wholesale, so the active day (whose invariant is
  // "nothing of this day lives in a bucket") must be dissolved first.
  if (today_active_) flush_today();
  std::vector<Entry> all;
  all.reserve(slots_.live());
  Time min_t = std::numeric_limits<Time>::max();
  Time max_t = std::numeric_limits<Time>::min();
  for (auto& bucket : buckets_) {
    drop_dead(bucket);
    for (const Entry& e : bucket) {
      min_t = std::min(min_t, e.at);
      max_t = std::max(max_t, e.at);
      all.push_back(e);
    }
    bucket.clear();
  }
  buckets_.clear();
  buckets_.resize(new_bucket_count);
  // Recalibrate the day width from the median *non-zero* inter-event gap.
  // The mean, (max - min) / n, collapses under the bimodal mix real
  // simulations produce — dense near-term packet events plus a few
  // far-future retransmit timers — because the outliers stretch the range
  // and every near-term event lands in one bucket, degrading pops to linear
  // scans.  Zero gaps (events sharing a timestamp) are excluded: they carry
  // no width information — simultaneous events land in the same day at
  // *any* width — yet a synchronized burst (the first packets of an incast's
  // simultaneous starts, a batch of same-instant timers) can make them the
  // majority, dragging the median to zero and the width to a single
  // nanosecond, at which point every refill walks hundreds of empty days.
  // The 3x factor targets a few events per day (Brown, CACM 1988).  Flow
  // starts never enter the queue (Simulator's start lane): thousands of
  // Poisson arrivals queued up front sized the width from arrival gaps,
  // and fat-tree days held ~68 entries instead of ~11.
  if (all.size() > 1 && max_t > min_t) {
    std::vector<Time> times;
    times.reserve(all.size());
    for (const Entry& e : all) times.push_back(e.at);
    std::sort(times.begin(), times.end());
    std::vector<Time> gaps;
    gaps.reserve(times.size() - 1);
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i] != times[i - 1]) gaps.push_back(times[i] - times[i - 1]);
    }
    if (!gaps.empty()) {
      const std::size_t mid = gaps.size() / 2;
      std::nth_element(gaps.begin(), gaps.begin() + mid, gaps.end());
      set_width(3 * gaps[mid]);
    }
  }
  for (const Entry& e : all) {
    buckets_[bucket_of(e.at)].push_back(e);
  }
}

}  // namespace fastcc::sim
