// Allocation regression: Engine::run's per-job path is allocation-free.
//
// This binary replaces the global operator new with a counting shim (the
// same idiom as bench_engine_perf) and measures how many heap allocations
// Engine::run makes for N and for 4N jobs of the same workload. What a run
// allocates regardless of its length — warming the per-node availability
// heaps, the event heap, the job arenas, the dispatch treap pool — cancels
// in the difference, so (allocs(4N) - allocs(N)) / 3N is the cost of one
// additional job. A per-job or per-hop allocation (a node-based container,
// a per-record vector) puts it at 1 or more.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "treesched/treesched.hpp"

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

// Every new routes through malloc here, so the free() calls pair correctly;
// the compiler cannot see that across the replaced globals.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them): the
// deletes below free every pointer, so every new must come from malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace treesched {
namespace {

/// Heap allocations made by Engine::run over `jobs` arrivals at rho = 0.7
/// (the greedy policy included; instance and engine built beforehand).
std::int64_t run_allocs(const Tree& tree, int jobs) {
  util::Rng rng(42);
  workload::WorkloadSpec spec;
  spec.jobs = jobs;
  spec.load = 0.7;
  const Instance inst = workload::generate(rng, tree, spec);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  engine.run(policy);
  const std::int64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(engine.metrics().completed_count(), static_cast<std::size_t>(jobs));
  return allocs;
}

double allocs_per_additional_job(const Tree& tree, int n) {
  const std::int64_t small = run_allocs(tree, n);
  const std::int64_t large = run_allocs(tree, 4 * n);
  return static_cast<double>(large - small) / (3.0 * n);
}

TEST(EngineAllocations, WideTreeRunIsAllocationFreePerJob) {
  const double per_job =
      allocs_per_additional_job(builders::fat_tree(100, 1, 100), 2000);
  EXPECT_LE(per_job, 0.01);
  RecordProperty("allocs_per_additional_job", std::to_string(per_job));
}

TEST(EngineAllocations, SmallTreeRunIsAllocationFreePerJob) {
  const double per_job =
      allocs_per_additional_job(builders::fat_tree(8, 1, 2), 2000);
  EXPECT_LE(per_job, 0.01);
  RecordProperty("allocs_per_additional_job", std::to_string(per_job));
}

}  // namespace
}  // namespace treesched
