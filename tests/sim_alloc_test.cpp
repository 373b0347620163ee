// Allocation regression: Engine::run's per-job path is allocation-free, and
// so are the durable writes of a streaming run once their buffers are warm.
//
// This binary replaces the global operator new with a counting shim (the
// same idiom as bench_engine_perf) and measures how many heap allocations
// Engine::run makes for N and for 4N jobs of the same workload. What a run
// allocates regardless of its length — warming the per-node availability
// heaps, the event heap, the job arenas, the dispatch treap pool — cancels
// in the difference, so (allocs(4N) - allocs(N)) / 3N is the cost of one
// additional job. A per-job or per-hop allocation (a node-based container,
// a per-record vector) puts it at 1 or more.
//
// The durable-write cases count each SegmentedRunLogWriter::commit and each
// SnapshotStore::write directly: after the first few have grown the reused
// buffers, one more segment or generation allocates nothing (file names,
// temporaries and manifest records included). The durable-stream case puts
// it together: a recorded, snapshotting run_stream whose window grows in
// place, counted for N and 4N arrivals like Engine::run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/treesched.hpp"
#include "treesched/workload/arrivals.hpp"
#include "treesched/workload/stream.hpp"

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

template <class F>
std::int64_t allocs_during(F&& f) {
  const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
  f();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DurableWriteAllocations, SteadyStateSegmentCommitAllocatesNothing) {
  const std::string dir = fresh_dir("alloc_segments");
  const Tree tree = builders::fat_tree(2, 1, 2);
  const SpeedProfile speeds = SpeedProfile::uniform(tree, 1.0);
  const NodeId rc = tree.root_children().front();
  const NodeId leaf = tree.leaves().front();
  sim::SegmentedRunLogWriter writer({dir + "/run.log", 4096}, tree,
                                    speeds.speeds(), sim::NodePolicy::kSjf,
                                    0.0, overload::ShedConfig{});
  writer.start_fresh();
  // 1024 jobs (4096 lines) per segment: admit, a router and a leaf burst,
  // done — every segment the same shape, with times of the same width.
  std::vector<std::int64_t> per_commit;
  double t = 1000.0;
  for (std::uint64_t job = 0; job < 9 * 1024; t += 0.5) {
    writer.on_admit(job, t, 1.0, 2.5, leaf);
    writer.on_burst({rc, 0, 0, t, t + 0.25, 1.0}, job);
    writer.on_burst({leaf, 0, sim::kLeafChunk, t + 0.25, t + 0.75, 1.0}, job);
    writer.on_done(job, t + 0.75);
    if (++job % 1024 == 0)
      per_commit.push_back(allocs_during([&] { writer.commit(false); }));
  }
  ASSERT_EQ(per_commit.size(), 9u);
  EXPECT_EQ(writer.next_index(), 9u);
  for (std::size_t i = 2; i < per_commit.size(); ++i)
    EXPECT_EQ(per_commit[i], 0) << "commit " << i;
}

TEST(DurableWriteAllocations, SteadyStateSnapshotGenerationAllocatesNothing) {
  const std::string dir = fresh_dir("alloc_snapshots");
  exec::SnapshotStore store(dir + "/snap", 3);
  std::string envelope;
  exec::encode_snapshot_envelope({{"engine", std::string(4096, 'x') + "\n"}},
                                 envelope);
  // Progress values of one width: a longer manifest record would grow the
  // reused record buffer once, which is content growth.
  std::vector<std::int64_t> per_write;
  for (std::uint64_t gen = 0; gen < 8; ++gen)
    per_write.push_back(
        allocs_during([&] { store.write(10000 + gen * 2048, envelope); }));
  ASSERT_EQ(store.generations().size(), 3u);
  // Generations 0-2 fill the keep window; from then on each write reuses
  // the entry of the generation it retires.
  for (std::size_t i = 3; i < per_write.size(); ++i)
    EXPECT_EQ(per_write[i], 0) << "generation " << i;
}

/// Heap allocations of one recorded, snapshotting run_stream over
/// `arrivals` arrivals at rho 0.7 on fat 8x1x2: the engine, the window's
/// growth, the segmented run log and the snapshot generations, set-up
/// included.
std::int64_t durable_stream_allocs(std::uint64_t arrivals) {
  const std::string dir = fresh_dir("alloc_stream_" + std::to_string(arrivals));
  auto tree = std::make_shared<const Tree>(builders::fat_tree(8, 1, 2));
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 3;
  cfg.stream.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  cfg.stream.lambda = workload::arrival_rate_for_load(
      static_cast<int>(tree->root_children().size()), cfg.stream.sizes.mean(),
      0.7);
  cfg.total_jobs = arrivals;
  cfg.window = 4096;
  cfg.record_path = dir + "/run.manifest";
  cfg.segment_cap = 4096;
  cfg.snapshot_every = 2048;
  cfg.snapshot_path = dir + "/snap";
  cfg.snapshot_keep = 3;
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  exec::StreamRunnerResult res;
  const std::int64_t allocs =
      allocs_during([&] { res = exec::run_stream(tree, speeds, cfg); });
  EXPECT_EQ(res.arrivals, arrivals);
  EXPECT_EQ(res.snapshots_written, (arrivals - 1) / cfg.snapshot_every);
  return allocs;
}

TEST(DurableStreamAllocations, PerAdditionalArrivalAllocatesNothing) {
  // What the run costs whatever its length — set-up, buffer warm-up, the
  // geometric growth of the window's vectors — cancels in the difference;
  // a per-arrival, per-extension or per-snapshot allocation does not (one
  // allocation per snapshot generation alone is 1/2048 = 0.0005).
  const std::uint64_t n = 8192;
  const std::int64_t small = durable_stream_allocs(n);
  const std::int64_t large = durable_stream_allocs(4 * n);
  const double per_arrival =
      static_cast<double>(large - small) / (3.0 * static_cast<double>(n));
  EXPECT_LE(per_arrival, 0.002) << small << " allocations for " << n
                                << " arrivals, " << large << " for " << 4 * n;
  RecordProperty("allocs_per_additional_arrival", std::to_string(per_arrival));
}

}  // namespace
}  // namespace treesched
