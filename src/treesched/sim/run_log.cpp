#include "treesched/sim/run_log.hpp"

#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "treesched/util/fields.hpp"
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

[[noreturn]] void bad(const std::string& msg, std::string_view line = {}) {
  throw std::invalid_argument("runlog: " + msg + std::string(line));
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

RunLog read_run_log(std::string_view bytes) {
  RunLog log;
  bool header_seen = false;
  std::string_view line;
  while (util::next_line(bytes, line)) {
    util::Fields f(line);
    const std::string_view tag = f.next();
    if (tag.empty() || tag[0] == '#') continue;
    // Each record reads its fields; one check below rejects a malformed
    // field or one left over.
    if (tag == "runlog") {
      int version = 0;
      if (!(f >> version) || version != 1) bad("unsupported version");
      header_seen = true;
    } else if (!header_seen) {
      bad("missing 'runlog 1' header");
    } else if (tag == "policy") {
      std::string p;
      f >> p;
      log.node_policy = parse_policy(p);
    } else if (tag == "chunk") {
      f >> log.router_chunk_size;
      if (log.router_chunk_size < 0.0) bad("bad chunk line");
    } else if (tag == "speeds") {
      std::size_t n = 0;
      if (!(f >> n) || n > line.size()) bad("bad speeds line");
      log.speeds.resize(n);
      for (double& s : log.speeds) f >> s;
    } else if (tag == "job") {
      std::size_t id = 0, len = 0;
      Time completion = -1.0;
      if (!(f >> id >> completion >> len) || len > line.size())
        bad("bad job line: ", line);
      if (id >= 1000000) bad("job id out of range");
      if (log.paths.size() <= id) {
        log.paths.resize(id + 1);
        log.completion.resize(id + 1, -1.0);
      }
      log.completion[id] = completion;
      log.paths[id].resize(len);
      for (NodeId& v : log.paths[id]) f >> v;
    } else if (tag == "seg") {
      Segment s;
      f >> s.node >> s.job >> s.chunk >> s.t0 >> s.t1 >> s.rate;
      log.segments.push_back(s);
    } else if (tag == "fevent") {
      std::string tok;
      FaultRecord fr;
      f >> tok >> fr.t >> fr.node >> fr.factor;
      fr.kind = parse_fault_token(tok);
      log.faults.push_back(fr);
    } else if (tag == "redispatch") {
      FaultRecord fr;
      fr.kind = FaultRecord::Kind::kRedispatch;
      f >> fr.t >> fr.job >> fr.node >> fr.to;
      log.faults.push_back(fr);
    } else if (tag == "shedcfg") {
      std::string p;
      f >> p >> log.shed.queue_cap >> log.shed.deadline_slack;
      try {
        log.shed.policy = overload::parse_shed_policy(p);
      } catch (const std::invalid_argument&) {
        bad("unknown shed policy '" + p + "'");
      }
    } else if (tag == "shed") {
      ShedRecord sr;
      sr.kind = ShedRecord::Kind::kShed;
      f >> sr.t >> sr.job;
      log.sheds.push_back(sr);
    } else if (tag == "reject" || tag == "admitf") {
      ShedRecord sr;
      sr.kind = tag == "reject" ? ShedRecord::Kind::kReject
                                : ShedRecord::Kind::kAdmit;
      f >> sr.t >> sr.job >> sr.f >> sr.bound;
      log.sheds.push_back(sr);
    } else {
      bad("unknown tag '" + std::string(tag) + "'");
    }
    if (!f || !f.done()) bad("bad " + std::string(tag) + " line: ", line);
  }
  if (!header_seen) bad("missing 'runlog 1' header");
  return log;
}

RunLog read_run_log_file(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) throw std::runtime_error("cannot open run log: " + path);
  return read_run_log(*bytes);
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
