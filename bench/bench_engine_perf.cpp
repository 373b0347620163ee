// E13 — simulator throughput (google-benchmark): jobs/second of full
// simulation across instance sizes, tree shapes, and engine features, to
// document that the substrate comfortably handles the experiment scales.
#include <benchmark/benchmark.h>

#include <charconv>
#include <string>
#include <vector>

#include "treesched/treesched.hpp"
#include "treesched/util/mem.hpp"
#include "treesched/util/string_util.hpp"

// Allocation telemetry: this binary (and only this binary — the macro is a
// bench/CMakeLists.txt target_compile_definitions, never set for the
// libraries or tests) replaces the global operator new/delete with counting
// shims, so BENCH_engine_perf.json records how many heap allocations one
// simulated job costs. The engine's per-job path allocates nothing (flat
// event heap, flat avail heaps, job and stamp arenas, Q_v only in the
// dispatch index); what this counter still sees is first-use growth of
// those vectors and heaps, bounded by the node count rather than the job
// count. The counter is what keeps a per-insert allocation from sneaking
// back in without the time gate noticing on a fast machine;
// tests/sim_alloc_test gates the per-additional-job cost in ctest.
#ifdef TREESCHED_BENCH_COUNT_ALLOCS
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// The malloc/free pairing is correct by construction here (every new routes
// through the malloc above), but the compiler's heuristic cannot see that
// across the replaced globals and flags the free() calls.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
#endif  // TREESCHED_BENCH_COUNT_ALLOCS

using namespace treesched;

namespace {

struct Setup {
  Instance inst;
  sim::EngineConfig cfg;
};

Setup make_setup(int jobs, int arity, int depth, double chunk_hint) {
  util::Rng rng(42);
  const Tree tree = builders::fat_tree(arity, depth, 2);
  workload::WorkloadSpec spec;
  spec.jobs = jobs;
  spec.load = 0.8;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  sim::EngineConfig cfg;
  cfg.router_chunk_size = chunk_hint;
  return {workload::generate(rng, tree, spec), cfg};
}

void BM_RunPaperPolicy(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const Setup setup = make_setup(jobs, 2, 2, 0.0);
  const SpeedProfile speeds = SpeedProfile::uniform(setup.inst.tree(), 1.5);
  for (auto _ : state) {
    algo::PaperGreedyPolicy policy(0.5);
    sim::Engine engine(setup.inst, speeds, setup.cfg);
    engine.run(policy);
    benchmark::DoNotOptimize(engine.metrics().total_flow_time());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_RunPaperPolicy)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RunOnWideTree(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  const Setup setup = make_setup(2000, arity, 2, 0.0);
  const SpeedProfile speeds = SpeedProfile::uniform(setup.inst.tree(), 1.5);
  for (auto _ : state) {
    algo::PaperGreedyPolicy policy(0.5);
    sim::Engine engine(setup.inst, speeds, setup.cfg);
    engine.run(policy);
    benchmark::DoNotOptimize(engine.metrics().total_flow_time());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RunOnWideTree)->Arg(2)->Arg(3)->Arg(4);

void BM_PipelinedRouting(benchmark::State& state) {
  // The chunk hint flows through make_setup into the engine config, so the
  // instance and the engine agree on the pipelining granularity.
  const Setup setup =
      make_setup(2000, 2, 2, 1.0 / static_cast<double>(state.range(0)));
  const SpeedProfile speeds = SpeedProfile::uniform(setup.inst.tree(), 1.5);
  for (auto _ : state) {
    algo::PaperGreedyPolicy policy(0.5);
    sim::Engine engine(setup.inst, speeds, setup.cfg);
    engine.run(policy);
    benchmark::DoNotOptimize(engine.metrics().total_flow_time());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_PipelinedRouting)->Arg(1)->Arg(4)->Arg(16);

void BM_MirrorPolicyOverhead(benchmark::State& state) {
  const Setup setup = make_setup(2000, 2, 2, 0.0);
  const SpeedProfile speeds =
      SpeedProfile::paper_identical(setup.inst.tree(), 0.5);
  for (auto _ : state) {
    algo::BroomstickMirrorPolicy mirror(setup.inst, 0.5);
    sim::Engine engine(setup.inst, speeds, setup.cfg);
    engine.run(mirror);
    benchmark::DoNotOptimize(engine.metrics().total_flow_time());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_MirrorPolicyOverhead);

void BM_SrptLowerBound(benchmark::State& state) {
  const Setup setup =
      make_setup(static_cast<int>(state.range(0)), 2, 2, 0.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(lp::combined_lower_bound(setup.inst));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SrptLowerBound)->Arg(1000)->Arg(10000);

// Dispatch stress on a genuinely wide topology: 100 racks x 100 machines
// (10^4 leaves), overloaded (rho = 4) so queues build up and assignment
// cost — not event processing — dominates. The CI perf leg gates on this
// benchmark's allocs_per_job counter, which is exact (no timing noise), and
// pins its total_flow counter bit for bit: the 10^4-leaf tree is where the
// greedy rule's tie and smallest-job cases fire, which the golden tests'
// small trees do not reach.
void BM_DispatchWideTree(benchmark::State& state) {
  util::Rng rng(42);
  const Tree tree = builders::fat_tree(100, 1, 100);
  workload::WorkloadSpec spec;
  spec.jobs = 4000;
  spec.load = 4.0;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const Instance inst = workload::generate(rng, tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
#ifdef TREESCHED_BENCH_COUNT_ALLOCS
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  double total_flow = 0.0;
  for (auto _ : state) {
    algo::PaperGreedyPolicy policy(0.5);
    sim::Engine engine(inst, speeds);
    engine.run(policy);
    total_flow = engine.metrics().total_flow_time();
    benchmark::DoNotOptimize(total_flow);
  }
  state.SetItemsProcessed(state.iterations() * spec.jobs);
  state.counters["total_flow"] = total_flow;
#ifdef TREESCHED_BENCH_COUNT_ALLOCS
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_job"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * spec.jobs);
#endif
  state.counters["peak_rss_bytes"] =
      static_cast<double>(util::peak_rss_bytes());
}
BENCHMARK(BM_DispatchWideTree);

// BM_DispatchWideTree's tree and arrivals under largest-first shedding at
// volume cap 2000: the dispatch layer on bounded queues beside admission
// control, whose two root-cut queries (the backlog and each root child's
// largest queued key) run once or more per arrival. The CI perf leg pins
// total_flow bit for bit and the shed + reject count exactly: every
// admission decision and every greedy decision after it.
void BM_ShedWideTree(benchmark::State& state) {
  util::Rng rng(42);
  const Tree tree = builders::fat_tree(100, 1, 100);
  workload::WorkloadSpec spec;
  spec.jobs = 4000;
  spec.load = 4.0;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const Instance inst = workload::generate(rng, tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  sim::EngineConfig cfg;
  cfg.shed.policy = overload::ShedPolicy::kLargestFirst;
  cfg.shed.queue_cap = 2000.0;
#ifdef TREESCHED_BENCH_COUNT_ALLOCS
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  double total_flow = 0.0;
  std::size_t turned_away = 0;
  for (auto _ : state) {
    algo::PaperGreedyPolicy policy(0.5);
    overload::AdmissionController admission(cfg.shed, 0.5);
    sim::Engine engine(inst, speeds, cfg);
    engine.set_admission(&admission);
    engine.run(policy);
    total_flow = engine.metrics().total_flow_time();
    turned_away =
        engine.metrics().shed_count() + engine.metrics().rejected_count();
    benchmark::DoNotOptimize(total_flow);
  }
  state.SetItemsProcessed(state.iterations() * spec.jobs);
  state.counters["total_flow"] = total_flow;
  state.counters["shed_and_rejected"] = static_cast<double>(turned_away);
#ifdef TREESCHED_BENCH_COUNT_ALLOCS
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_job"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * spec.jobs);
#endif
}
BENCHMARK(BM_ShedWideTree);

// Run-log number formatting: the cost of one util::append_number(double) on
// the values a stream's segment writer prints (Poisson release times,
// bounded-Pareto sizes, finish times, speeds), against std::to_chars at
// general precision 17 (Arg 1), the path every number took before the
// integer fast path. items_per_second is numbers formatted per second.
void BM_AppendNumber(benchmark::State& state) {
  util::Rng rng(42);
  std::vector<double> values;
  double release = 0.0;
  for (int i = 0; i < 1024; ++i) {
    release += rng.exponential(0.7);
    const double size = rng.bounded_pareto(1.0, 1000.0, 1.5);
    values.insert(values.end(), {release, size, release + size / 1.5, 1.5});
  }
  const bool reference = state.range(0) == 1;
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) {
      if (reference) {
        char buf[32];
        const std::to_chars_result r = std::to_chars(
            buf, buf + sizeof buf, v, std::chars_format::general, 17);
        out.append(buf, r.ptr);
      } else {
        util::append_number(out, v);
      }
      out += ' ';
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
  state.SetLabel(reference ? "to_chars general 17" : "append_number");
}
BENCHMARK(BM_AppendNumber)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
