// End-to-end benchmark of treesched, one workload per process.
//
//   perfbench --workload <dispatch-wide|shed-wide|stream-durable>
//             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// Each workload is a fixed input generated from --seed. After one discarded
// warm-up repetition the input is replayed, unchanged, until --seconds have
// passed; a timing is the least over the repetitions (see least()) and an
// exact count the median over the repetitions. Every repetition is
// checked (untimed): its total flow time must be bit-identical to the first
// repetition's, every offered job must be completed, shed or rejected, and
// the durable stream's run log and newest snapshot must verify.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// alternates untraced and traced repetitions and prints the per-layer
// metrics: self time, share and allocations of each layer, measured by
// decorators and an observer around the public calls into it. The last
// stdout line is the JSON result; the lines above it give every metric with
// its kind (timing, exact count, measured memory). Exit code 0 only when
// every check passed.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "treesched/algo/policies.hpp"
#include "treesched/core/instance.hpp"
#include "treesched/core/speed_profile.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/workload/arrivals.hpp"
#include "treesched/workload/generator.hpp"
#include "treesched/workload/stream.hpp"

// Every heap allocation of the process passes through these, so a phase's
// allocation count is the difference of two reads of g_allocs.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

using namespace treesched;
using perfbench::Kind;
using perfbench::Metric;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ---- workload parameters (fixed: jobs/s depends on the input size) -------

constexpr double kEps = 0.5;
// dispatch-wide / shed-wide: 10^4 machines, overloaded root cut.
constexpr int kRacks = 100;
constexpr int kMachinesPerRack = 100;
constexpr int kBatchJobs = 4000;
constexpr double kBatchLoad = 4.0;
constexpr double kBatchSpeed = 1.5;
constexpr double kShedQueueCap = 2000.0;
// stream-durable: 8 racks of 2 machines, durable segmented run log and
// snapshots. With 8 root children the stream was empty at a window boundary
// in none of 16 seeds tried, so every seed runs the same sequence of window
// extensions; on a 2-rack tree 4 of 16 seeds drained at a boundary, rotated
// instead, and ran 2-5x faster, which no cross-seed bound could hold.
constexpr int kStreamRacks = 8;
constexpr int kStreamMachinesPerRack = 2;
constexpr std::uint64_t kStreamJobs = 8192;
constexpr double kStreamLoad = 0.7;
constexpr std::size_t kStreamWindow = 4096;
constexpr std::size_t kSegmentCap = 4096;
constexpr std::uint64_t kSnapshotEvery = 2048;
constexpr int kSnapshotKeep = 3;
// Stream set-up takes microseconds, so each repetition sets up this many
// times.
constexpr int kStreamSetupsPerRep = 16;
// The traced observer times one sweep of index queries every N events.
constexpr std::uint64_t kIndexSampleEvery = 64;

constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(val);
    } else if (flag == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--scratch") {
      a.scratch = val;
      have_scratch = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_scratch)
    throw std::invalid_argument("--workload and --scratch are required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- decorators and observer around the layers ----------------------------

/// The untraced probe: one clock read per decision. A gap is the host time
/// from the previous decision (or the start of the run) to this one — the
/// event-loop stall the arriving job waited behind.
class LatencyProbe final : public sim::AssignmentPolicy {
 public:
  LatencyProbe(sim::AssignmentPolicy& inner, std::vector<double>& gaps)
      : inner_(inner), gaps_(gaps) {}
  void start() {
    gaps_.clear();
    last_ = Clock::now();
  }
  NodeId assign(const sim::Engine& engine, const Job& job) override {
    const NodeId v = inner_.assign(engine, job);
    const auto now = Clock::now();
    gaps_.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
    return v;
  }
  const char* name() const override { return inner_.name(); }

 private:
  sim::AssignmentPolicy& inner_;
  std::vector<double>& gaps_;
  Clock::time_point last_{};
};

/// algo layer span: self time and allocations inside assign.
class TimedPolicy final : public sim::AssignmentPolicy {
 public:
  explicit TimedPolicy(sim::AssignmentPolicy& inner) : inner_(inner) {}
  NodeId assign(const sim::Engine& engine, const Job& job) override {
    const std::int64_t a0 = allocs();
    const auto t0 = Clock::now();
    const NodeId v = inner_.assign(engine, job);
    seconds += since(t0);
    alloc_count += allocs() - a0;
    return v;
  }
  const char* name() const override { return inner_.name(); }

  double seconds = 0.0;
  std::int64_t alloc_count = 0;

 private:
  sim::AssignmentPolicy& inner_;
};

/// overload layer span: self time, allocations and verdicts of admit.
class TimedAdmission final : public sim::AdmissionPolicy {
 public:
  explicit TimedAdmission(sim::AdmissionPolicy& inner) : inner_(inner) {}
  bool admit(sim::Engine& engine, const Job& job) override {
    const std::int64_t a0 = allocs();
    const auto t0 = Clock::now();
    const bool ok = inner_.admit(engine, job);
    seconds += since(t0);
    alloc_count += allocs() - a0;
    ++calls;
    if (ok) ++admitted;
    return ok;
  }
  const char* name() const override { return inner_.name(); }

  double seconds = 0.0;
  std::int64_t alloc_count = 0;
  std::int64_t calls = 0;
  std::int64_t admitted = 0;

 private:
  sim::AdmissionPolicy& inner_;
};

/// sim layer counters: events, event-queue high-water mark, and a timed
/// sample of the dispatch-index queries on the root children.
class LayerObserver final : public sim::EngineObserver {
 public:
  explicit LayerObserver(double probe_size) : probe_size_(probe_size) {}
  void on_event(const sim::Engine& engine, Time /*t*/) override {
    ++events;
    peak_queue = std::max(peak_queue, engine.event_queue_size());
    if (events % kIndexSampleEvery != 0) return;
    const auto& children = engine.tree().root_children();
    const auto t0 = Clock::now();
    for (const NodeId v : children) {
      (void)engine.count_larger(v, probe_size_);
      (void)engine.larger_residual_fraction(v, probe_size_);
      (void)engine.pending_remaining(v);
    }
    probe_seconds += since(t0);
    queries += 3 * static_cast<std::int64_t>(children.size());
  }

  std::uint64_t events = 0;
  std::size_t peak_queue = 0;
  std::int64_t queries = 0;
  double probe_seconds = 0.0;

 private:
  double probe_size_;
};

// ---- correctness -----------------------------------------------------------

/// Collects the outcome of every repetition's checks.
struct Checker {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool have_reference = false;
  std::uint64_t reference_bits = 0;

  void rep(std::int64_t jobs, double total_flow, bool ok,
           const std::string& what) {
    attempted += jobs;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(total_flow);
    if (!have_reference) {
      have_reference = true;
      reference_bits = bits;
    } else if (bits != reference_bits) {
      ok = false;
      std::cerr << "check failed: total flow time differs from the first "
                   "repetition\n";
    }
    if (!ok) {
      failed += jobs;
      std::cerr << "check failed: " << what << '\n';
    }
  }
};

// ---- batch workloads (dispatch-wide, shed-wide) ----------------------------

struct BatchSystem {
  std::unique_ptr<Instance> inst;
  std::unique_ptr<algo::PaperGreedyPolicy> policy;
  std::unique_ptr<overload::AdmissionController> admission;
  std::unique_ptr<sim::Engine> engine;
};

overload::ShedConfig shed_config() {
  overload::ShedConfig cfg;
  cfg.policy = overload::ShedPolicy::kLargestFirst;
  cfg.queue_cap = kShedQueueCap;
  return cfg;
}

workload::WorkloadSpec batch_spec() {
  workload::WorkloadSpec spec;
  spec.jobs = kBatchJobs;
  spec.load = kBatchLoad;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  return spec;
}

/// Everything built before the first arrival: tree, instance, speeds,
/// policy, controller and engine. `generate_s` receives the generator's
/// share of it.
BatchSystem build_batch(bool shed, std::uint64_t seed, double& generate_s) {
  BatchSystem s;
  auto tree = std::make_shared<const Tree>(
      builders::fat_tree(kRacks, 1, kMachinesPerRack));
  util::Rng rng(seed);
  const auto g0 = Clock::now();
  s.inst =
      std::make_unique<Instance>(workload::generate(rng, tree, batch_spec()));
  generate_s = since(g0);
  sim::EngineConfig cfg;
  if (shed) {
    cfg.shed = shed_config();
    s.admission =
        std::make_unique<overload::AdmissionController>(cfg.shed, kEps);
  }
  s.policy = std::make_unique<algo::PaperGreedyPolicy>(kEps);
  s.engine = std::make_unique<sim::Engine>(
      *s.inst, SpeedProfile::uniform(s.inst->tree(), kBatchSpeed), cfg);
  return s;
}

struct BatchRep {
  double setup_s = 0.0;
  double generate_s = 0.0;
  double timed_s = 0.0;
  double p99_s = 0.0;
  std::int64_t allocs = 0;
  double mean_flow = 0.0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  // Traced repetitions only.
  perfbench::TimeSplit split;
  perfbench::AllocSplit alloc_split;
  std::int64_t admit_calls = 0;
  std::int64_t admitted = 0;
  std::uint64_t events = 0;
  std::size_t peak_queue = 0;
  std::int64_t queries = 0;
  std::uint64_t release_epochs = 0;
  std::uint64_t mutations = 0;
  std::size_t arena_slots = 0;
};

BatchRep run_batch_rep(bool shed, bool traced, std::uint64_t seed,
                       std::vector<double>& gaps, Checker& check) {
  BatchRep r;
  const auto s0 = Clock::now();
  BatchSystem sys = build_batch(shed, seed, r.generate_s);
  r.setup_s = since(s0);
  sim::Engine& engine = *sys.engine;

  if (!traced) {
    LatencyProbe probe(*sys.policy, gaps);
    if (sys.admission) engine.set_admission(sys.admission.get());
    const std::int64_t a0 = allocs();
    probe.start();
    const auto t0 = Clock::now();
    engine.run(probe);
    r.timed_s = since(t0);
    r.allocs = allocs() - a0;
    r.p99_s = perfbench::percentile(gaps, 0.99);
  } else {
    TimedPolicy policy(*sys.policy);
    std::unique_ptr<TimedAdmission> admission;
    if (sys.admission) {
      admission = std::make_unique<TimedAdmission>(*sys.admission);
      engine.set_admission(admission.get());
    }
    LayerObserver observer(batch_spec().sizes.mean());
    engine.set_observer(&observer);
    const std::int64_t a0 = allocs();
    const auto t0 = Clock::now();
    engine.run(policy);
    r.timed_s = since(t0);
    r.allocs = allocs() - a0;
    r.split = {r.timed_s, policy.seconds, admission ? admission->seconds : 0.0,
               0.0, observer.probe_seconds};
    r.alloc_split = {r.allocs, policy.alloc_count,
                     admission ? admission->alloc_count : 0, 0};
    if (admission) {
      r.admit_calls = admission->calls;
      r.admitted = admission->admitted;
    }
    r.events = observer.events;
    r.peak_queue = observer.peak_queue;
    r.queries = observer.queries;
    r.release_epochs = engine.release_epoch();
    r.mutations = engine.mutation_count();
    r.arena_slots = engine.arena_size();
  }

  const sim::Metrics& m = engine.metrics();
  r.completed = m.completed_count();
  r.shed = m.shed_count();
  r.rejected = m.rejected_count();
  r.mean_flow = m.mean_flow_time();
  const bool conserved =
      r.completed + r.shed + r.rejected == static_cast<std::size_t>(kBatchJobs);
  check.rep(kBatchJobs, m.total_flow_time(), conserved,
            "completed + shed + rejected != offered");
  return r;
}

// ---- durable stream (stream-durable) ---------------------------------------

struct StreamSystem {
  std::shared_ptr<const Tree> tree;
  SpeedProfile speeds;
  exec::StreamRunnerConfig cfg;
};

std::shared_ptr<const Tree> stream_tree() {
  return std::make_shared<const Tree>(
      builders::fat_tree(kStreamRacks, 1, kStreamMachinesPerRack));
}

workload::StreamSpec stream_spec(const Tree& tree, std::uint64_t seed) {
  workload::StreamSpec spec;
  spec.seed = seed;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  spec.lambda = workload::arrival_rate_for_load(
      static_cast<int>(tree.root_children().size()), spec.sizes.mean(),
      kStreamLoad);
  return spec;
}

/// Everything built before the first arrival; the run log and snapshots go
/// to `dir` when `durable`.
StreamSystem build_stream(std::uint64_t seed, bool durable,
                          const std::filesystem::path& dir) {
  std::shared_ptr<const Tree> tree = stream_tree();
  SpeedProfile speeds = SpeedProfile::paper_identical(*tree, kEps);
  exec::StreamRunnerConfig cfg;
  cfg.stream = stream_spec(*tree, seed);
  cfg.total_jobs = kStreamJobs;
  cfg.window = kStreamWindow;
  cfg.policy = "paper";
  cfg.eps = kEps;
  if (durable) {
    cfg.record_path = (dir / "run.manifest").string();
    cfg.segment_cap = kSegmentCap;
    cfg.snapshot_every = kSnapshotEvery;
    cfg.snapshot_path = (dir / "snap").string();
    cfg.snapshot_keep = kSnapshotKeep;
  }
  return {std::move(tree), std::move(speeds), std::move(cfg)};
}

/// Empties `dir` and makes the removal durable before the next repetition,
/// so no repetition's fsyncs also commit the previous one's deletions.
void fresh_dir(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const int fd = ::open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced)
    throw std::runtime_error("cannot sync " + dir.parent_path().string());
}

std::uint64_t bytes_under(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

struct StreamRep {
  double setup_s = 0.0;  ///< least of the repetition's set-ups
  double timed_s = 0.0;
  std::int64_t allocs = 0;
  double mean_flow = 0.0;
  double total_flow = 0.0;
  double completed = 0.0;
  std::size_t max_window = 0;
  std::size_t segments = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t bytes = 0;
  double snapshot_read_s = 0.0;
  double segment_audit_s = 0.0;
  // From the batch replay of the same arrivals.
  double p99_s = 0.0;
  double replay_flow = 0.0;
  std::uint64_t release_epochs = 0;
  std::uint64_t mutations = 0;
  std::size_t arena_slots = 0;
};

/// Verifies the durable outputs: the segment chain audits clean and the
/// newest snapshot generation reads back and decodes. Times both reads.
bool verify_durable(const exec::StreamRunnerConfig& cfg, StreamRep& r) {
  auto t0 = Clock::now();
  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  r.segment_audit_s = since(t0);
  if (!audit.ok) {
    std::cerr << "check failed: audit_segments rejected the run log\n";
    return false;
  }
  t0 = Clock::now();
  const exec::SnapshotStore store(cfg.snapshot_path, cfg.snapshot_keep);
  const std::vector<exec::SnapshotGeneration> gens = store.generations();
  const std::optional<std::string> bytes =
      gens.empty() ? std::nullopt : store.read(gens.front());
  if (!bytes) {
    std::cerr << "check failed: no readable snapshot generation\n";
    return false;
  }
  const auto sections = exec::decode_snapshot_envelope(*bytes);
  r.snapshot_read_s = since(t0);
  return !sections.empty();
}

/// The stream's arrivals as one batch instance. run_stream offers no
/// per-arrival hook, but its schedule is window-invariant and equal to a
/// monolithic engine run over the same arrivals, so the arrival latency
/// probe and the sim counters run on this replay.
struct StreamReplay {
  std::shared_ptr<const Tree> tree;
  SpeedProfile speeds;
  Instance inst;
  double generate_s = 0.0;  ///< drawing the arrivals from the JobStream
};

StreamReplay build_replay(std::uint64_t seed) {
  std::shared_ptr<const Tree> tree = stream_tree();
  const workload::JobStream stream(stream_spec(*tree, seed));
  workload::StreamCursor cursor;
  std::vector<Job> jobs;
  jobs.reserve(kStreamJobs);
  const auto g0 = Clock::now();
  for (std::uint64_t i = 0; i < kStreamJobs; ++i) {
    const workload::StreamJob a = stream.next(cursor);
    jobs.emplace_back(static_cast<JobId>(i), a.release, a.size);
  }
  const double generate_s = since(g0);
  SpeedProfile speeds = SpeedProfile::paper_identical(*tree, kEps);
  Instance inst(tree, std::move(jobs), EndpointModel::kIdentical);
  return {std::move(tree), std::move(speeds), std::move(inst), generate_s};
}

/// Replays the stream's arrivals through Engine::run with the latency probe
/// (and `observer`, when given); fills the replay fields of `r`.
void replay_stream(const StreamReplay& replay, std::vector<double>& gaps,
                   LayerObserver* observer, StreamRep& r) {
  algo::PaperGreedyPolicy policy(kEps);
  sim::Engine engine(replay.inst, replay.speeds);
  if (observer) engine.set_observer(observer);
  LatencyProbe probe(policy, gaps);
  probe.start();
  engine.run(probe);
  r.p99_s = perfbench::percentile(gaps, 0.99);
  r.replay_flow = engine.metrics().total_flow_time();
  r.release_epochs = engine.release_epoch();
  r.mutations = engine.mutation_count();
  r.arena_slots = engine.arena_size();
}

StreamRep run_stream_rep(std::uint64_t seed, bool durable,
                         const std::filesystem::path& dir,
                         const StreamReplay& replay, std::vector<double>& gaps,
                         LayerObserver* observer, Checker& check) {
  StreamRep r;
  std::optional<StreamSystem> built;
  for (int i = 0; i < kStreamSetupsPerRep; ++i) {
    built.reset();
    const auto s0 = Clock::now();
    built.emplace(build_stream(seed, durable, dir));
    const double setup_s = since(s0);
    r.setup_s = i == 0 ? setup_s : std::min(r.setup_s, setup_s);
  }
  const StreamSystem& sys = *built;
  fresh_dir(dir);

  const std::int64_t a0 = allocs();
  const auto t0 = Clock::now();
  const exec::StreamRunnerResult res =
      exec::run_stream(sys.tree, sys.speeds, sys.cfg);
  r.timed_s = since(t0);
  r.allocs = allocs() - a0;

  const sim::StreamAccumulator& acc = res.acc;
  r.total_flow = acc.flow.value();
  r.completed = static_cast<double>(acc.completed);
  r.mean_flow = r.total_flow / r.completed;
  r.max_window = res.max_window;
  r.segments = res.segments_written;
  r.snapshots = res.snapshots_written;
  bool ok = res.arrivals == kStreamJobs && !res.interrupted &&
            !res.cancelled &&
            acc.completed + acc.shed + acc.rejected == kStreamJobs;
  if (!ok) std::cerr << "check failed: stream did not retire every arrival\n";
  if (durable) {
    r.bytes = bytes_under(dir);
    ok = verify_durable(sys.cfg, r) && ok;
  }
  replay_stream(replay, gaps, observer, r);
  // The streaming accumulator sums in completion order, the batch metrics
  // in job order, so the two totals agree to rounding, not bit for bit.
  if (std::abs(r.replay_flow - r.total_flow) >
      1e-9 * std::abs(r.total_flow)) {
    ok = false;
    std::cerr << "check failed: stream and batch replay disagree on flow\n";
  }
  check.rep(static_cast<std::int64_t>(kStreamJobs), r.total_flow, ok,
            "stream repetition");
  fresh_dir(dir);
  return r;
}

// ---- metric assembly ------------------------------------------------------

void add(std::vector<Metric>& out, const char* name, const char* unit,
         Kind kind, double value) {
  out.push_back({name, unit, kind, value});
}

template <typename Rep, typename T>
double median_of(const std::vector<Rep>& reps, T Rep::*field) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const Rep& r : reps) v.push_back(static_cast<double>(r.*field));
  return perfbench::median(std::move(v));
}

// Timings take the least value over the repetitions. Other processes on the
// host only ever slow a repetition down, and they do so for seconds at a
// time, so the fastest repetition is the steadiest estimate of the
// program's own cost.

template <typename Rep>
double least(const std::vector<Rep>& reps, double Rep::*field) {
  double v = reps.front().*field;
  for (const Rep& r : reps) v = std::min(v, r.*field);
  return v;
}

/// The repetition with the shortest measured call.
template <typename Rep>
const Rep& fastest(const std::vector<Rep>& reps) {
  return *std::min_element(
      reps.begin(), reps.end(),
      [](const Rep& a, const Rep& b) { return a.timed_s < b.timed_s; });
}

struct EndToEnd {
  double jobs_per_s = 0.0;
  double arrival_p99_s = 0.0;
  double setup_s = 0.0;
  double allocs_per_job = 0.0;
  double mean_flow = 0.0;
  double goodput_frac = 0.0;
};

std::vector<Metric> e2e_metrics(const EndToEnd& e) {
  std::vector<Metric> out;
  add(out, "jobs_per_s", "1/s", Kind::kTiming, e.jobs_per_s);
  add(out, "arrival_p99_us", "us", Kind::kTiming, e.arrival_p99_s * 1e6);
  add(out, "setup_s", "s", Kind::kTiming, e.setup_s);
  add(out, "peak_rss_mb", "MB", Kind::kMeasured, peak_rss_mb());
  add(out, "allocs_per_job", "allocs/job", Kind::kExact, e.allocs_per_job);
  add(out, "mean_flow", "time", Kind::kExact, e.mean_flow);
  add(out, "goodput_frac", "fraction", Kind::kExact, e.goodput_frac);
  return out;
}

/// Per-layer figures of one traced repetition: the fastest one for the
/// timings. A layer a workload does not run, or whose calls run_stream does
/// not expose, keeps its zeros.
struct Layers {
  double jobs = 0.0;  ///< offered jobs of the repetition
  perfbench::TimeSplit time;
  perfbench::AllocSplit alloc;
  double admitted_frac = 0.0;
  double shed = 0.0;
  double events = 0.0, epochs = 0.0, mutations = 0.0;
  double peak_queue = 0.0, arena_slots = 0.0;
  double index_queries = 0.0, index_s = 0.0;
  double max_window = 0.0, segments = 0.0, snapshots = 0.0, bytes = 0.0;
  double snapshot_read_s = 0.0, segment_audit_s = 0.0;
  double generate_s = 0.0;
  double traced_jobs_per_s = 0.0, overhead_share = 0.0;
};

std::vector<Metric> layer_metrics(const Layers& l) {
  const perfbench::TimeSplit& t = l.time;
  const auto us_per_job = [&](double s) { return s * 1e6 / l.jobs; };
  const auto per_job = [&](double v) { return v / l.jobs; };
  const auto allocs_per_job = [&](std::int64_t n) {
    return per_job(static_cast<double>(n));
  };
  std::vector<Metric> out;
  add(out, "algo.assign_us_per_job", "us", Kind::kTiming,
      us_per_job(t.assign_s));
  add(out, "algo.assign_share", "fraction", Kind::kTiming, t.share(t.assign_s));
  add(out, "algo.allocs_per_job", "allocs/job", Kind::kExact,
      allocs_per_job(l.alloc.in_assign));
  add(out, "overload.admit_us_per_job", "us", Kind::kTiming,
      us_per_job(t.admit_s));
  add(out, "overload.admit_share", "fraction", Kind::kTiming,
      t.share(t.admit_s));
  add(out, "overload.allocs_per_job", "allocs/job", Kind::kExact,
      allocs_per_job(l.alloc.in_admit));
  add(out, "overload.admitted_frac", "fraction", Kind::kExact, l.admitted_frac);
  add(out, "overload.shed_per_job", "shed/job", Kind::kExact, per_job(l.shed));
  add(out, "sim.engine_self_us_per_job", "us", Kind::kTiming,
      us_per_job(t.engine_self_s()));
  add(out, "sim.engine_share", "fraction", Kind::kTiming,
      t.share(t.engine_self_s()));
  add(out, "sim.events_per_job", "events/job", Kind::kExact, per_job(l.events));
  add(out, "sim.release_epochs_per_job", "epochs/job", Kind::kExact,
      per_job(l.epochs));
  add(out, "sim.mutations_per_job", "mutations/job", Kind::kExact,
      per_job(l.mutations));
  add(out, "sim.peak_event_queue", "events", Kind::kExact, l.peak_queue);
  add(out, "sim.arena_slots", "slots", Kind::kExact, l.arena_slots);
  add(out, "sim.allocs_per_job", "allocs/job", Kind::kExact,
      allocs_per_job(l.alloc.sim()));
  add(out, "sim.index_query_ns", "ns", Kind::kTiming,
      l.index_queries > 0.0 ? l.index_s * 1e9 / l.index_queries : 0.0);
  add(out, "exec.max_window", "jobs", Kind::kExact, l.max_window);
  add(out, "exec.segments", "count", Kind::kExact, l.segments);
  add(out, "exec.snapshots", "count", Kind::kExact, l.snapshots);
  add(out, "exec.bytes_written_per_job", "B/job", Kind::kExact,
      per_job(l.bytes));
  add(out, "exec.durability_share", "fraction", Kind::kTiming,
      t.share(t.exec_s));
  add(out, "exec.allocs_per_job_durable", "allocs/job", Kind::kExact,
      allocs_per_job(l.alloc.durable_delta));
  add(out, "exec.snapshot_read_ms", "ms", Kind::kTiming,
      l.snapshot_read_s * 1e3);
  add(out, "exec.segment_audit_ms", "ms", Kind::kTiming,
      l.segment_audit_s * 1e3);
  add(out, "workload.generate_ms", "ms", Kind::kTiming, l.generate_s * 1e3);
  add(out, "trace.jobs_per_s", "1/s", Kind::kTiming, l.traced_jobs_per_s);
  add(out, "trace.overhead_share", "fraction", Kind::kTiming,
      l.overhead_share);
  return out;
}

/// Runs repetitions until `seconds` have passed (at least kMinReps), after
/// one discarded warm-up: `body(true)` is the warm-up.
template <typename Body>
void repeat_for(double seconds, Body&& body) {
  body(true);
  const auto start = Clock::now();
  for (int i = 0; i < kMinReps || since(start) < seconds; ++i) body(false);
}

std::vector<Metric> batch_workload(const Args& args, bool shed,
                                   Checker& check) {
  const double jobs = kBatchJobs;
  std::vector<double> gaps;
  gaps.reserve(kBatchJobs);

  if (!args.trace) {
    std::vector<BatchRep> reps;
    repeat_for(args.seconds, [&](bool warmup) {
      BatchRep r = run_batch_rep(shed, false, args.seed, gaps, check);
      if (!warmup) reps.push_back(r);
    });
    EndToEnd e;
    e.jobs_per_s = jobs / least(reps, &BatchRep::timed_s);
    e.arrival_p99_s = least(reps, &BatchRep::p99_s);
    e.setup_s = least(reps, &BatchRep::setup_s);
    e.allocs_per_job = median_of(reps, &BatchRep::allocs) / jobs;
    e.mean_flow = reps.back().mean_flow;
    e.goodput_frac = static_cast<double>(reps.back().completed) / jobs;
    return e2e_metrics(e);
  }

  // Traced: alternate untraced and traced repetitions so drift hits both.
  std::vector<BatchRep> plain, traced;
  repeat_for(args.seconds, [&](bool warmup) {
    BatchRep p = run_batch_rep(shed, false, args.seed, gaps, check);
    BatchRep t = run_batch_rep(shed, true, args.seed, gaps, check);
    if (!warmup) {
      plain.push_back(p);
      traced.push_back(t);
    }
  });
  const BatchRep& t = fastest(traced);
  Layers l;
  l.jobs = jobs;
  l.time = t.split;
  l.alloc = t.alloc_split;
  l.admitted_frac = t.admit_calls > 0 ? static_cast<double>(t.admitted) /
                                            static_cast<double>(t.admit_calls)
                                      : 0.0;
  l.shed = static_cast<double>(t.shed);
  l.events = static_cast<double>(t.events);
  l.epochs = static_cast<double>(t.release_epochs);
  l.mutations = static_cast<double>(t.mutations);
  l.peak_queue = static_cast<double>(t.peak_queue);
  l.arena_slots = static_cast<double>(t.arena_slots);
  l.index_queries = static_cast<double>(t.queries);
  l.index_s = t.split.probe_s;
  l.generate_s = least(traced, &BatchRep::generate_s);
  l.traced_jobs_per_s = jobs / t.timed_s;
  l.overhead_share = 1.0 - least(plain, &BatchRep::timed_s) / t.timed_s;
  return layer_metrics(l);
}

std::vector<Metric> stream_workload(const Args& args, Checker& check) {
  const double jobs = static_cast<double>(kStreamJobs);
  const std::filesystem::path dir = args.scratch / "stream";
  std::vector<double> gaps;
  gaps.reserve(kStreamJobs);
  const StreamReplay replay = build_replay(args.seed);

  if (!args.trace) {
    std::vector<StreamRep> reps;
    repeat_for(args.seconds, [&](bool warmup) {
      StreamRep r =
          run_stream_rep(args.seed, true, dir, replay, gaps, nullptr, check);
      if (!warmup) reps.push_back(std::move(r));
    });
    EndToEnd e;
    e.jobs_per_s = jobs / least(reps, &StreamRep::timed_s);
    e.arrival_p99_s = least(reps, &StreamRep::p99_s);
    e.setup_s = least(reps, &StreamRep::setup_s);
    e.allocs_per_job = median_of(reps, &StreamRep::allocs) / jobs;
    e.mean_flow = reps.back().mean_flow;
    e.goodput_frac = reps.back().completed / jobs;
    return e2e_metrics(e);
  }

  // Traced: alternate durable and plain (recording off) repetitions. The
  // sim counters come from the batch replay of the same arrivals, observed
  // once.
  std::vector<StreamRep> durable, plain;
  LayerObserver observer(stream_spec(*replay.tree, args.seed).sizes.mean());
  repeat_for(args.seconds, [&](bool warmup) {
    StreamRep d =
        run_stream_rep(args.seed, true, dir, replay, gaps, nullptr, check);
    StreamRep p = run_stream_rep(args.seed, false, dir, replay, gaps,
                                 warmup ? &observer : nullptr, check);
    if (warmup) return;
    durable.push_back(std::move(d));
    plain.push_back(std::move(p));
  });
  const StreamRep& d = fastest(durable);
  const StreamRep& p = fastest(plain);
  Layers l;
  l.jobs = jobs;
  l.time.timed_s = d.timed_s;
  l.time.exec_s = d.timed_s - p.timed_s;
  l.alloc = {d.allocs, 0, 0, d.allocs - p.allocs};
  l.events = static_cast<double>(observer.events);
  l.epochs = static_cast<double>(d.release_epochs);
  l.mutations = static_cast<double>(d.mutations);
  l.peak_queue = static_cast<double>(observer.peak_queue);
  l.arena_slots = static_cast<double>(d.arena_slots);
  l.index_queries = static_cast<double>(observer.queries);
  l.index_s = observer.probe_seconds;
  l.max_window = static_cast<double>(d.max_window);
  l.segments = static_cast<double>(d.segments);
  l.snapshots = static_cast<double>(d.snapshots);
  l.bytes = static_cast<double>(d.bytes);
  l.snapshot_read_s = least(durable, &StreamRep::snapshot_read_s);
  l.segment_audit_s = least(durable, &StreamRep::segment_audit_s);
  l.generate_s = replay.generate_s;
  l.traced_jobs_per_s = jobs / d.timed_s;
  l.overhead_share = 0.0;  // nothing is traced inside run_stream
  return layer_metrics(l);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Checker check;
    std::vector<Metric> metrics;
    if (args.workload == "dispatch-wide") {
      metrics = batch_workload(args, false, check);
    } else if (args.workload == "shed-wide") {
      metrics = batch_workload(args, true, check);
    } else if (args.workload == "stream-durable") {
      metrics = stream_workload(args, check);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload +
                                  "' (dispatch-wide|shed-wide|stream-durable)");
    }
    for (const Metric& m : metrics)
      std::cout << "# " << m.name << ' ' << perfbench::number(m.value) << ' '
                << m.unit << ' ' << perfbench::kind_name(m.kind) << '\n';
    const bool correct = check.failed == 0;
    std::cout << perfbench::result_json(correct, check.attempted, check.failed,
                                        metrics)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
