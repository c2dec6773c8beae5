#include "sim/timing_wheel.h"

#include <bit>
#include <utility>

namespace fastcc::sim {

TimerId TimingWheel::arm(Time deadline, Callback cb) {
  assert(deadline >= now_ && "timers cannot be armed in the past");
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    cbs_.emplace_back();
  }
  Node& n = nodes_[idx];
  n.deadline = deadline;
  n.seq = next_seq_++;
  cbs_[idx] = std::move(cb);
  place(idx);
  ++live_;
  return make_id(n.gen, idx);
}

bool TimingWheel::cancel(TimerId id) {
  const std::uint32_t idx = index_of(id);
  if (idx >= nodes_.size()) return false;
  Node& n = nodes_[idx];
  if (n.gen != gen_of(id) || n.level < 0) return false;
  unlink(idx);
  cbs_[idx] = Callback();
  ++n.gen;
  n.level = -1;
  free_.push_back(idx);
  --live_;
  return true;
}

void TimingWheel::place(std::uint32_t idx) {
  Node& n = nodes_[idx];
  // Newer nodes carry larger seqs, so on a deadline tie the cached node
  // stays the minimum (FIFO order).
  if (live_ == 0) {
    cached_best_ = idx;
  } else if (cached_best_ != kNil &&
             n.deadline < nodes_[cached_best_].deadline) {
    cached_best_ = idx;
  }
  const auto delta = static_cast<std::uint64_t>(n.deadline - now_);
  int level = 0;
  while (level < kLevels &&
         delta >= (std::uint64_t{1} << (kSlotBits * (level + 1)))) {
    ++level;
  }
  n.next = kNil;
  if (level == kOverflowLevel) {
    ++overflow_live_;
    // Delay beyond the wheel horizon (~4.3 s): an unsorted side list.  Its
    // entries never relocate; scan_best folds the list in when it is
    // non-empty, which real workloads never trigger (RTOs are milliseconds).
    n.level = static_cast<std::int8_t>(kOverflowLevel);
    n.slot = 0;
    n.prev = overflow_tail_;
    if (overflow_tail_ == kNil) {
      overflow_head_ = idx;
    } else {
      nodes_[overflow_tail_].next = idx;
    }
    overflow_tail_ = idx;
    return;
  }
  ++level_live_[level];
  const auto slot = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(n.deadline) >> (kSlotBits * level)) &
      (kSlots - 1));
  n.level = static_cast<std::int8_t>(level);
  n.slot = static_cast<std::uint8_t>(slot);
  if (!occupied(level, slot)) {
    n.prev = kNil;
    heads_[level][slot] = idx;
    occupancy_[level][slot / 64] |= std::uint64_t{1} << (slot % 64);
  } else {
    n.prev = tails_[level][slot];
    nodes_[tails_[level][slot]].next = idx;
  }
  tails_[level][slot] = idx;
}

void TimingWheel::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  assert(n.level >= 0 && "unlinking a free node");
  if (idx == cached_best_) cached_best_ = kNil;
  std::uint32_t* head;
  std::uint32_t* tail;
  if (n.level == kOverflowLevel) {
    --overflow_live_;
    head = &overflow_head_;
    tail = &overflow_tail_;
  } else {
    --level_live_[n.level];
    head = &heads_[n.level][n.slot];
    tail = &tails_[n.level][n.slot];
  }
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    *head = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    *tail = n.prev;
  }
  if (*head == kNil && n.level != kOverflowLevel) {
    occupancy_[n.level][n.slot / 64] &=
        ~(std::uint64_t{1} << (n.slot % 64));
  }
  n.prev = kNil;
  n.next = kNil;
}

void TimingWheel::consider(std::uint32_t head, std::uint32_t& best_idx,
                           Time& best_at, std::uint64_t& best_seq) const {
  for (std::uint32_t i = head; i != kNil; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (best_idx == kNil || n.deadline < best_at ||
        (n.deadline == best_at && n.seq < best_seq)) {
      best_idx = i;
      best_at = n.deadline;
      best_seq = n.seq;
    }
  }
}

int TimingWheel::first_occupied_after(int level, std::size_t cursor) const {
  const auto& words = occupancy_[level];
  // Forward arc (cursor, kSlots): mask off bits at or below the cursor.
  std::size_t w = (cursor + 1) / 64;
  if (cursor + 1 < kSlots) {
    std::uint64_t word = words[w] & (~std::uint64_t{0} << ((cursor + 1) % 64));
    while (true) {
      if (word != 0) {
        return static_cast<int>(w * 64 +
                                static_cast<std::size_t>(
                                    std::countr_zero(word)));
      }
      if (++w >= words.size()) break;
      word = words[w];
    }
  }
  // Wrapped arc [0, cursor).
  for (w = 0; w <= cursor / 64; ++w) {
    std::uint64_t word = words[w];
    if (w == cursor / 64) word &= (std::uint64_t{1} << (cursor % 64)) - 1;
    if (word != 0) {
      return static_cast<int>(w * 64 +
                              static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  return -1;
}

std::uint32_t TimingWheel::scan_best() const {
  // Correctness of the two-list-per-level scan: every pending deadline D on
  // level k satisfied D - now <= 256^(k+1) when armed (placement rule), and
  // the clock only advances, so the level-k digit of D is at a cursor
  // distance equal to its block offset — except a full-cycle-ahead deadline
  // (offset exactly 256), which aliases onto the cursor slot itself.  Hence
  // non-cursor slots hold exactly one deadline block each and blocks grow
  // strictly with distance: the first occupied non-cursor slot bounds every
  // later one, and only the cursor slot can mix near and far entries (its
  // list is walked in full).
  if (cached_best_ != kNil) return cached_best_;
  std::uint32_t best_idx = kNil;
  Time best_at = 0;
  std::uint64_t best_seq = 0;
  for (int level = 0; level < kLevels; ++level) {
    if (level_live_[level] == 0) continue;
    const auto cursor = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(now_) >> (kSlotBits * level)) &
        (kSlots - 1));
    if (occupied(level, cursor)) {
      consider(heads_[level][cursor], best_idx, best_at, best_seq);
    }
    const int s = first_occupied_after(level, cursor);
    if (s >= 0) {
      consider(heads_[level][static_cast<std::size_t>(s)], best_idx, best_at,
               best_seq);
    }
  }
  if (overflow_live_ > 0) {
    consider(overflow_head_, best_idx, best_at, best_seq);
  }
  cached_best_ = best_idx;
  return best_idx;
}

Time TimingWheel::next_deadline() const {
  if (live_ == 0) return kNoTimer;
  const std::uint32_t idx = scan_best();
  assert(idx != kNil);
  return nodes_[idx].deadline;
}

void TimingWheel::advance(Time to) {
  while (live_ > 0) {
    const std::uint32_t idx = scan_best();
    assert(idx != kNil);
    if (nodes_[idx].deadline > to) break;
    // Advance the clock to the expiry first: reentrant arms from the
    // callback measure their delay from the firing instant.
    now_ = nodes_[idx].deadline;
    unlink(idx);
    Callback cb = std::move(cbs_[idx]);
    Node& n = nodes_[idx];
    ++n.gen;  // invalidate the outstanding TimerId
    n.level = -1;
    free_.push_back(idx);
    --live_;
    cb();  // may arm() or cancel(); the node slot above is already reusable
  }
  if (now_ < to) now_ = to;
}

}  // namespace fastcc::sim
