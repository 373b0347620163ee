// Unit tests for the event queue (sim/event_queue.hpp), a flat binary heap:
// the pop sequence must be the exact total order (t, seq) — the order that
// pins run-log and snapshot bytes — and sorted_events() must equal it.
// The inputs are the regimes an earlier bucketed (calendar) queue had to
// survive and that the engine still produces: same-instant storms where
// only seq breaks ties, exponentially spread far-future timestamps,
// interleaved monotone push/pop, and large grow-then-drain populations.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "treesched/sim/event_queue.hpp"
#include "treesched/util/rng.hpp"

using treesched::NodeId;
using treesched::Time;
using treesched::sim::EventQueue;
using treesched::sim::SimEvent;

namespace {

SimEvent ev(Time t, std::uint64_t seq) {
  SimEvent e;
  e.t = t;
  e.seq = seq;
  e.node = static_cast<NodeId>(seq % 7);
  e.version = seq;
  return e;
}

bool strictly_before(const SimEvent& a, const SimEvent& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.seq < b.seq;
}

/// Drains the queue and checks the pop order against the (t, seq)-sorted
/// reference, element-wise with all payload fields intact.
void expect_drains_sorted(EventQueue& q, std::vector<SimEvent> reference) {
  std::sort(reference.begin(), reference.end(), strictly_before);
  ASSERT_EQ(q.size(), reference.size());
  for (const SimEvent& want : reference) {
    ASSERT_FALSE(q.empty());
    const SimEvent* top = q.peek();
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->t, want.t);
    EXPECT_EQ(top->seq, want.seq);
    const SimEvent got = q.pop();
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.node, want.node);
    EXPECT_EQ(got.version, want.version);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peek(), nullptr);
  std::vector<SimEvent> none = {ev(1.0, 0)};
  q.sorted_events(none);
  EXPECT_TRUE(none.empty());
}

TEST(EventQueue, SameInstantStormPopsInSeqOrder) {
  // A dense burst at one instant: every event shares t, so the heap must
  // fall back to seq order. Push in a scrambled (deterministic) order to
  // rule out insertion-order luck.
  EventQueue q;
  std::vector<SimEvent> reference;
  treesched::util::Rng rng(7);
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t s = 0; s < 5000; ++s) seqs.push_back(s);
  for (std::size_t i = seqs.size(); i > 1; --i)
    std::swap(seqs[i - 1],
              seqs[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  for (const std::uint64_t s : seqs) {
    q.push(ev(10.0, s));
    reference.push_back(ev(10.0, s));
  }
  expect_drains_sorted(q, std::move(reference));
}

TEST(EventQueue, FarFutureEventsCrossBucketBoundaries) {
  // Exponentially spread timestamps, up to ~1e31: long empty stretches
  // between consecutive events.
  EventQueue q;
  std::vector<SimEvent> reference;
  double t = 0.0;
  for (std::uint64_t s = 0; s < 400; ++s) {
    t = t * 1.2 + 1.0;  // 1, 2.2, 3.64, ... ~1e31 at s=399
    q.push(ev(t, s));
    reference.push_back(ev(t, s));
  }
  expect_drains_sorted(q, std::move(reference));
}

TEST(EventQueue, RandomizedInterleavedPushPopMatchesReference) {
  // The engine's contract: every push carries t >= the last popped t.
  // Interleave monotone pushes with pops and check each pop against an
  // (inefficient but obviously correct) sorted-vector reference.
  treesched::util::Rng rng(42);
  EventQueue q;
  std::vector<SimEvent> pending;  // kept sorted descending, pop from back
  double frontier = 0.0;
  std::uint64_t seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = pending.empty() || rng.uniform01() < 0.55;
    if (push) {
      // Mix of same-instant (exact frontier), near and far-future times.
      const double r = rng.uniform01();
      double t = frontier;
      if (r > 0.7)
        t += rng.uniform_real(0.0, 5.0);
      else if (r > 0.6)
        t += rng.uniform_real(0.0, 5000.0);  // far future
      const SimEvent e = ev(t, seq++);
      q.push(e);
      pending.push_back(e);
      std::sort(pending.begin(), pending.end(),
                [](const SimEvent& a, const SimEvent& b) {
                  return strictly_before(b, a);
                });
    } else {
      const SimEvent want = pending.back();
      pending.pop_back();
      ASSERT_FALSE(q.empty());
      const SimEvent got = q.pop();
      ASSERT_EQ(got.t, want.t) << "step " << step;
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      frontier = got.t;
    }
  }
  expect_drains_sorted(q, std::move(pending));
}

TEST(EventQueue, GrowAndShrinkKeepsOrder) {
  // Grow to 30k pending events, drain most of them, then refill — order
  // must hold across the whole population swing.
  treesched::util::Rng rng(3);
  EventQueue q;
  std::vector<SimEvent> pending;
  std::uint64_t seq = 0;
  double frontier = 0.0;
  for (std::uint64_t s = 0; s < 30000; ++s) {
    const SimEvent e = ev(rng.uniform_real(0.0, 100.0), seq++);
    q.push(e);
    pending.push_back(e);
  }
  std::sort(pending.begin(), pending.end(), strictly_before);
  for (int i = 0; i < 29000; ++i) {
    const SimEvent got = q.pop();
    ASSERT_EQ(got.seq, pending[static_cast<std::size_t>(i)].seq);
    frontier = got.t;
  }
  pending.erase(pending.begin(), pending.begin() + 29000);
  for (std::uint64_t s = 0; s < 500; ++s) {
    const SimEvent e = ev(frontier + rng.uniform_real(0.0, 10.0), seq++);
    q.push(e);
    pending.push_back(e);
  }
  expect_drains_sorted(q, std::move(pending));
}

TEST(EventQueue, SortedEventsIsTheExactPopOrder) {
  // sorted_events() feeds snapshot serialization, which byte-compares
  // against the old copy-and-drain order — it must equal the pop order
  // exactly, without disturbing the queue.
  treesched::util::Rng rng(11);
  EventQueue q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 3000; ++i) {
    const double r = rng.uniform01();
    const double t =
        r > 0.8 ? rng.uniform_real(0.0, 1e6) : rng.uniform_real(0.0, 50.0);
    q.push(ev(t, seq++));
  }
  // Drain a prefix so the snapshot is taken mid-run.
  double frontier = 0.0;
  for (int i = 0; i < 700; ++i) frontier = q.pop().t;
  q.push(ev(frontier + 1.0, seq++));
  std::vector<SimEvent> snap;
  q.sorted_events(snap);
  ASSERT_EQ(snap.size(), q.size());
  for (const SimEvent& want : snap) {
    const SimEvent got = q.pop();
    ASSERT_EQ(got.t, want.t);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.node, want.node);
    ASSERT_EQ(got.version, want.version);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
