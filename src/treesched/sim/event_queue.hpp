// Event queue for the simulator hot loop: one flat binary min-heap.
//
// The engine pops events in strict (t, seq) order. `seq` is the engine's
// monotone event counter, so (t, seq) is a total order and every correct
// priority queue pops the same sequence; this one is std::push_heap /
// std::pop_heap over a single reused vector, which allocates only while the
// vector grows to the run's peak backlog. Since same-instant completions at
// different nodes are logged in pop order, the exact order is what pins
// run-log bytes. sorted_events() exposes it for snapshot serialization.
#pragma once

#include <cstdint>
#include <vector>

#include "treesched/core/types.hpp"

namespace treesched::sim {

/// A scheduled engine event: completion check for `node`, valid only while
/// the node's version still matches.
struct SimEvent {
  Time t = 0.0;
  std::uint64_t seq = 0;
  NodeId node = kInvalidNode;
  std::uint64_t version = 0;
};

class EventQueue {
 public:
  void push(const SimEvent& ev);

  /// The minimum (t, seq) event, or nullptr when empty.
  const SimEvent* peek() const { return heap_.empty() ? nullptr : &heap_[0]; }

  /// Removes and returns the minimum event. Requires !empty().
  SimEvent pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Fills `out` (reusing its storage) with every pending event in
  /// ascending (t, seq) order — the exact pop order — for snapshot
  /// serialization.
  void sorted_events(std::vector<SimEvent>& out) const;

 private:
  static bool event_less(const SimEvent& a, const SimEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  // std::*_heap comparators build max-heaps; invert to get a min-heap.
  static bool heap_cmp(const SimEvent& a, const SimEvent& b) {
    return event_less(b, a);
  }

  std::vector<SimEvent> heap_;
};

}  // namespace treesched::sim
