#include "treesched/sim/run_log.hpp"

#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "treesched/util/fs.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::sim {

namespace {

const char* policy_token(NodePolicy p) {
  switch (p) {
    case NodePolicy::kSjf: return "sjf";
    case NodePolicy::kFifo: return "fifo";
    case NodePolicy::kSrpt: return "srpt";
    case NodePolicy::kLcfs: return "lcfs";
    case NodePolicy::kHdf: return "hdf";
  }
  return "?";
}

NodePolicy parse_policy(const std::string& s) {
  if (s == "sjf") return NodePolicy::kSjf;
  if (s == "fifo") return NodePolicy::kFifo;
  if (s == "srpt") return NodePolicy::kSrpt;
  if (s == "lcfs") return NodePolicy::kLcfs;
  if (s == "hdf") return NodePolicy::kHdf;
  throw std::invalid_argument("runlog: unknown node policy '" + s + "'");
}

[[noreturn]] void bad(const std::string& msg) {
  throw std::invalid_argument("runlog: " + msg);
}

const char* fault_token(FaultRecord::Kind k) {
  switch (k) {
    case FaultRecord::Kind::kNodeDown: return "node-down";
    case FaultRecord::Kind::kNodeUp: return "node-up";
    case FaultRecord::Kind::kEdgeDown: return "edge-down";
    case FaultRecord::Kind::kEdgeUp: return "edge-up";
    case FaultRecord::Kind::kSlow: return "slow";
    case FaultRecord::Kind::kRedispatch: return "redispatch";
  }
  return "?";
}

FaultRecord::Kind parse_fault_token(const std::string& s) {
  if (s == "node-down") return FaultRecord::Kind::kNodeDown;
  if (s == "node-up") return FaultRecord::Kind::kNodeUp;
  if (s == "edge-down") return FaultRecord::Kind::kEdgeDown;
  if (s == "edge-up") return FaultRecord::Kind::kEdgeUp;
  if (s == "slow") return FaultRecord::Kind::kSlow;
  throw std::invalid_argument("runlog: unknown fault kind '" + s + "'");
}

}  // namespace

RunLog make_run_log(const Instance& instance, const SpeedProfile& speeds,
                    const EngineConfig& cfg, const ScheduleRecorder& recorder,
                    const Metrics& metrics) {
  std::vector<std::vector<NodeId>> paths(uidx(instance.job_count()));
  for (const Job& job : instance.jobs()) {
    const NodeId leaf = metrics.job(job.id).leaf;
    if (leaf != kInvalidNode) {
      const auto& p = instance.tree().path_to(leaf);
      paths[uidx(job.id)].assign(p.begin(), p.end());
    }
  }
  return make_run_log(instance, speeds, cfg, recorder, metrics, paths);
}

RunLog make_run_log(const Instance& instance, const SpeedProfile& speeds,
                    const EngineConfig& cfg, const ScheduleRecorder& recorder,
                    const Metrics& metrics,
                    const std::vector<std::vector<NodeId>>& paths) {
  RunLog log;
  log.node_policy = cfg.node_policy;
  log.router_chunk_size = cfg.router_chunk_size;
  log.shed = cfg.shed;
  log.speeds = speeds.speeds();
  log.paths = paths;
  log.completion.assign(uidx(instance.job_count()), -1.0);
  for (const Job& job : instance.jobs())
    log.completion[uidx(job.id)] = metrics.job(job.id).completion;
  log.segments = recorder.segments();
  return log;
}

RunLog make_run_log(const Instance& instance, const Engine& engine) {
  RunLog log = make_run_log(instance, engine.speeds(), engine.config(),
                            engine.recorder(), engine.metrics());
  log.faults = engine.fault_log();
  log.sheds = engine.shed_log();
  return log;
}

void write_run_log(std::ostream& os, const RunLog& log) {
  os << std::setprecision(17);
  os << "runlog 1\n";
  os << "policy " << policy_token(log.node_policy) << '\n';
  os << "chunk " << log.router_chunk_size << '\n';
  os << "speeds " << log.speeds.size();
  for (double s : log.speeds) os << ' ' << s;
  os << '\n';
  for (std::size_t j = 0; j < log.paths.size(); ++j) {
    os << "job " << j << ' ' << log.completion[j] << ' '
       << log.paths[j].size();
    for (NodeId v : log.paths[j]) os << ' ' << v;
    os << '\n';
  }
  for (const Segment& s : log.segments)
    os << "seg " << s.node << ' ' << s.job << ' ' << s.chunk << ' ' << s.t0
       << ' ' << s.t1 << ' ' << s.rate << '\n';
  for (const FaultRecord& fr : log.faults) {
    if (fr.kind == FaultRecord::Kind::kRedispatch)
      os << "redispatch " << fr.t << ' ' << fr.job << ' ' << fr.node << ' '
         << fr.to << '\n';
    else
      os << "fevent " << fault_token(fr.kind) << ' ' << fr.t << ' ' << fr.node
         << ' ' << fr.factor << '\n';
  }
  // Emitted only for overload-protected runs: a shed-policy-none log stays
  // byte-identical to the pre-overload format.
  if (log.shed.enabled() || !log.sheds.empty()) {
    os << "shedcfg " << overload::shed_policy_name(log.shed.policy) << ' '
       << log.shed.queue_cap << ' ' << log.shed.deadline_slack << '\n';
    for (const ShedRecord& sr : log.sheds) {
      switch (sr.kind) {
        case ShedRecord::Kind::kShed:
          os << "shed " << sr.t << ' ' << sr.job << '\n';
          break;
        case ShedRecord::Kind::kReject:
          os << "reject " << sr.t << ' ' << sr.job << ' ' << sr.f << ' '
             << sr.bound << '\n';
          break;
        case ShedRecord::Kind::kAdmit:
          os << "admitf " << sr.t << ' ' << sr.job << ' ' << sr.f << ' '
             << sr.bound << '\n';
          break;
      }
    }
  }
}

void write_run_log_file(const std::string& path, const RunLog& log) {
  std::ostringstream os;
  write_run_log(os, log);
  util::write_file_atomic(path, os.str());
}

RunLog read_run_log(std::istream& is) {
  RunLog log;
  bool header_seen = false;
  std::string line;
  while (std::getline(is, line)) {
    line = util::trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "runlog") {
      int version = 0;
      if (!(ls >> version) || version != 1) bad("unsupported version");
      header_seen = true;
    } else if (!header_seen) {
      bad("missing 'runlog 1' header");
    } else if (tag == "policy") {
      std::string p;
      if (!(ls >> p)) bad("bad policy line");
      log.node_policy = parse_policy(p);
    } else if (tag == "chunk") {
      if (!(ls >> log.router_chunk_size) || log.router_chunk_size < 0.0)
        bad("bad chunk line");
    } else if (tag == "speeds") {
      std::size_t n = 0;
      if (!(ls >> n)) bad("bad speeds line");
      log.speeds.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        if (!(ls >> log.speeds[i])) bad("speeds line truncated");
    } else if (tag == "job") {
      std::size_t id = 0, len = 0;
      Time completion = -1.0;
      if (!(ls >> id >> completion >> len)) bad("bad job line: " + line);
      if (id >= 1000000) bad("job id out of range");
      if (log.paths.size() <= id) {
        log.paths.resize(id + 1);
        log.completion.resize(id + 1, -1.0);
      }
      log.completion[id] = completion;
      log.paths[id].resize(len);
      for (std::size_t i = 0; i < len; ++i)
        if (!(ls >> log.paths[id][i])) bad("job path truncated: " + line);
    } else if (tag == "seg") {
      Segment s;
      if (!(ls >> s.node >> s.job >> s.chunk >> s.t0 >> s.t1 >> s.rate))
        bad("bad seg line: " + line);
      log.segments.push_back(s);
    } else if (tag == "fevent") {
      std::string tok;
      FaultRecord fr;
      if (!(ls >> tok >> fr.t >> fr.node >> fr.factor))
        bad("bad fevent line: " + line);
      fr.kind = parse_fault_token(tok);
      log.faults.push_back(fr);
    } else if (tag == "redispatch") {
      FaultRecord fr;
      fr.kind = FaultRecord::Kind::kRedispatch;
      if (!(ls >> fr.t >> fr.job >> fr.node >> fr.to))
        bad("bad redispatch line: " + line);
      log.faults.push_back(fr);
    } else if (tag == "shedcfg") {
      std::string p;
      if (!(ls >> p >> log.shed.queue_cap >> log.shed.deadline_slack))
        bad("bad shedcfg line: " + line);
      try {
        log.shed.policy = overload::parse_shed_policy(p);
      } catch (const std::invalid_argument&) {
        bad("unknown shed policy '" + p + "'");
      }
    } else if (tag == "shed") {
      ShedRecord sr;
      sr.kind = ShedRecord::Kind::kShed;
      if (!(ls >> sr.t >> sr.job)) bad("bad shed line: " + line);
      log.sheds.push_back(sr);
    } else if (tag == "reject") {
      ShedRecord sr;
      sr.kind = ShedRecord::Kind::kReject;
      if (!(ls >> sr.t >> sr.job >> sr.f >> sr.bound))
        bad("bad reject line: " + line);
      log.sheds.push_back(sr);
    } else if (tag == "admitf") {
      ShedRecord sr;
      sr.kind = ShedRecord::Kind::kAdmit;
      if (!(ls >> sr.t >> sr.job >> sr.f >> sr.bound))
        bad("bad admitf line: " + line);
      log.sheds.push_back(sr);
    } else {
      bad("unknown tag '" + tag + "'");
    }
  }
  if (!header_seen) bad("missing 'runlog 1' header");
  return log;
}

RunLog read_run_log_file(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) throw std::runtime_error("cannot open run log: " + path);
  std::istringstream is(*bytes);
  return read_run_log(is);
}

namespace {

// Shared naming helper: writes `base` into `out` with `tag` and `index`
// (zero-padded to six digits) inserted before the final extension (appended
// when there is none). Both per-task and per-segment names go through here
// so the two compose predictably.
void assign_tagged_log_path(std::string& out, const std::string& base,
                            std::string_view tag, std::size_t index) {
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::size_t stem = has_ext ? dot : base.size();
  out.assign(base, 0, stem);
  out += tag;
  util::append_padded(out, index, 6);
  out.append(base, stem);
}

}  // namespace

std::string task_log_path(const std::string& base, std::size_t task_index) {
  std::string out;
  assign_tagged_log_path(out, base, ".task", task_index);
  return out;
}

std::string segment_log_path(const std::string& base, std::size_t index) {
  std::string out;
  assign_segment_log_path(out, base, index);
  return out;
}

void assign_segment_log_path(std::string& out, const std::string& base,
                             std::size_t index) {
  assign_tagged_log_path(out, base, ".seg", index);
}

}  // namespace treesched::sim
