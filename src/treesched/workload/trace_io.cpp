#include "treesched/workload/trace_io.hpp"

#include <iomanip>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "treesched/util/assert.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/fs.hpp"

namespace treesched::workload {

namespace {
const char* kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::kRoot: return "root";
    case NodeKind::kRouter: return "router";
    case NodeKind::kMachine: return "machine";
  }
  return "?";
}

NodeKind parse_kind(const std::string& s) {
  if (s == "root") return NodeKind::kRoot;
  if (s == "router") return NodeKind::kRouter;
  if (s == "machine") return NodeKind::kMachine;
  throw std::invalid_argument("trace: unknown node kind '" + s + "'");
}

[[noreturn]] void bad(const std::string& msg, std::string_view line = {}) {
  throw std::invalid_argument("trace: " + msg + std::string(line));
}
}  // namespace

void write_trace(std::ostream& os, const Instance& instance) {
  const Tree& tree = instance.tree();
  os << std::setprecision(17);
  os << "tree " << tree.node_count() << '\n';
  for (NodeId v = 0; v < tree.node_count(); ++v)
    os << "node " << v << ' ' << tree.parent(v) << ' '
       << kind_name(tree.kind(v)) << '\n';
  os << "model "
     << (instance.model() == EndpointModel::kIdentical ? "identical"
                                                       : "unrelated")
     << '\n';
  for (const Job& j : instance.jobs()) {
    os << "job " << j.id << ' ' << j.release << ' ' << j.size << ' '
       << j.weight << ' ' << j.source;
    for (double p : j.leaf_sizes) os << ' ' << p;
    os << '\n';
  }
}

void write_trace_file(const std::string& path, const Instance& instance) {
  std::ostringstream os;
  write_trace(os, instance);
  util::write_file_atomic(path, os.str());
}

Instance read_trace(std::string_view bytes) {
  const std::size_t size = bytes.size();  // bounds the node count
  int node_count = -1;
  std::vector<NodeId> parent;
  std::vector<NodeKind> kind;
  bool model_seen = false;
  EndpointModel model = EndpointModel::kIdentical;
  std::vector<Job> jobs;

  std::string_view line;
  while (util::next_line(bytes, line)) {
    util::Fields f(line);
    const std::string_view tag = f.next();
    if (tag.empty() || tag[0] == '#') continue;
    if (tag == "tree") {
      if (!(f >> node_count) || node_count <= 0 || uidx(node_count) > size)
        bad("bad tree header");
      parent.assign(uidx(node_count), kInvalidNode);
      kind.assign(uidx(node_count), NodeKind::kRouter);
    } else if (tag == "node") {
      if (node_count < 0) bad("node before tree header");
      int id = -1, par = -1;
      std::string kname;
      if (!(f >> id >> par >> kname)) bad("bad node line: ", line);
      if (id < 0 || id >= node_count) bad("node id out of range");
      parent[uidx(id)] = static_cast<NodeId>(par);
      kind[uidx(id)] = parse_kind(kname);
    } else if (tag == "model") {
      std::string m;
      if (!(f >> m)) bad("bad model line");
      if (m == "identical") model = EndpointModel::kIdentical;
      else if (m == "unrelated") model = EndpointModel::kUnrelated;
      else bad("unknown model '" + m + "'");
      model_seen = true;
    } else if (tag == "job") {
      Job j;
      f >> j.id >> j.release >> j.size >> j.weight >> j.source;
      while (f && !f.done()) {
        double p = 0.0;
        f >> p;
        j.leaf_sizes.push_back(p);
      }
      jobs.push_back(std::move(j));
    } else {
      bad("unknown tag '" + std::string(tag) + "'");
    }
    if (!f || !f.done()) bad("bad " + std::string(tag) + " line: ", line);
  }
  if (node_count < 0) bad("missing tree header");
  if (!model_seen) bad("missing model line");
  Tree tree = Tree::build(std::move(parent), std::move(kind));
  return Instance(std::move(tree), std::move(jobs), model);
}

Instance read_trace_file(const std::string& path) {
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(*bytes);
}

}  // namespace treesched::workload
