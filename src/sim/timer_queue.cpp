#include "sim/timer_queue.hpp"

#include <algorithm>

#include "util/panic.hpp"

namespace mad::sim {

namespace {

// std heaps are max-heaps; invert (deadline, id) to keep the minimum on
// top. Generations never participate: stale entries are filtered before
// any ordering decision matters.
struct EntryGreater {
  bool operator()(const TimerQueue::Entry& a,
                  const TimerQueue::Entry& b) const {
    return b < a;
  }
};

}  // namespace

bool TimerQueue::armed(int id) const {
  return id >= 0 && static_cast<std::size_t>(id) < arms_.size() &&
         arms_[static_cast<std::size_t>(id)].armed;
}

void TimerQueue::arm(Time deadline, int id) {
  MAD_ASSERT(id >= 0, "timer for a negative actor id");
  if (static_cast<std::size_t>(id) >= arms_.size()) {
    arms_.resize(static_cast<std::size_t>(id) + 1);
  }
  Arm& a = arms_[static_cast<std::size_t>(id)];
  MAD_ASSERT(!a.armed, "timer already armed");
  // A fresh generation invalidates every entry this id left behind from
  // earlier lazily-cancelled arms, even bit-identical rearms.
  ++a.gen;
  a.armed = true;
  heap_.push_back({deadline, id, a.gen});
  std::push_heap(heap_.begin(), heap_.end(), EntryGreater{});
  ++live_;
}

void TimerQueue::cancel(int id) {
  MAD_ASSERT(armed(id), "cancel of an unarmed timer");
  // O(1): the entry stays in the heap until it surfaces in pop_min() or
  // a compaction drops it.
  arms_[static_cast<std::size_t>(id)].armed = false;
  --live_;
  if (heap_.size() > 64 && heap_.size() > 2 * live_) {
    std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
    std::make_heap(heap_.begin(), heap_.end(), EntryGreater{});
    MAD_ASSERT(heap_.size() == live_, "timer compaction miscount");
  }
}

void TimerQueue::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryGreater{});
  heap_.pop_back();
}

TimerQueue::Entry TimerQueue::pop_min() {
  MAD_ASSERT(live_ > 0, "pop_min on an empty timer queue");
  while (!live(heap_.front())) {
    pop_top();  // cancelled, or cancelled and since rearmed
  }
  const Entry top = heap_.front();
  pop_top();
  arms_[static_cast<std::size_t>(top.id)].armed = false;
  --live_;
  return top;
}

}  // namespace mad::sim
