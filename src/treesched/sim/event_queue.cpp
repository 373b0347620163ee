#include "treesched/sim/event_queue.hpp"

#include <algorithm>

#include "treesched/util/assert.hpp"

namespace treesched::sim {

void EventQueue::push(const SimEvent& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
}

SimEvent EventQueue::pop() {
  TS_CHECK(!heap_.empty(), "pop from an empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
  const SimEvent ev = heap_.back();
  heap_.pop_back();
  return ev;
}

void EventQueue::sorted_events(std::vector<SimEvent>& out) const {
  out.assign(heap_.begin(), heap_.end());
  std::sort(out.begin(), out.end(), event_less);
}

}  // namespace treesched::sim
