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

std::vector<SimEvent> EventQueue::sorted_events() const {
  std::vector<SimEvent> all = heap_;
  std::sort(all.begin(), all.end(), event_less);
  return all;
}

}  // namespace treesched::sim
