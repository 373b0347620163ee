#include "treesched/fault/plan.hpp"

#include "treesched/util/fs.hpp"
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace treesched::fault {

namespace {

[[noreturn]] void bad(const std::string& msg) {
  throw std::invalid_argument("fault plan: " + msg);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal strict JSON scanner — just enough for the fault-plan schema
/// (objects, arrays, strings, numbers). No escapes beyond \" and \\.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : s_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c)
      bad(std::string("expected '") + c + "' at offset " +
          std::to_string(pos_));
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) c = s_[pos_++];
      out += c;
    }
    if (pos_ >= s_.size()) bad("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number_value() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) bad("expected a number at offset " + std::to_string(start));
    try {
      std::size_t used = 0;
      const double v = std::stod(s_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) bad("malformed number");
      return v;
    } catch (const std::invalid_argument&) {
      bad("malformed number '" + s_.substr(start, pos_ - start) + "'");
    } catch (const std::out_of_range&) {
      bad("number out of range '" + s_.substr(start, pos_ - start) + "'");
    }
  }

  void done() {
    skip_ws();
    if (pos_ != s_.size())
      bad("trailing characters at offset " + std::to_string(pos_));
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

FaultKind parse_kind(const std::string& s) {
  if (s == "node-down") return FaultKind::kNodeDown;
  if (s == "node-up") return FaultKind::kNodeUp;
  if (s == "edge-down") return FaultKind::kEdgeDown;
  if (s == "edge-up") return FaultKind::kEdgeUp;
  if (s == "slow") return FaultKind::kSlow;
  bad("unknown event kind '" + s +
      "' (expected node-down|node-up|edge-down|edge-up|slow)");
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeDown: return "node-down";
    case FaultKind::kNodeUp: return "node-up";
    case FaultKind::kEdgeDown: return "edge-down";
    case FaultKind::kEdgeUp: return "edge-up";
    case FaultKind::kSlow: return "slow";
  }
  return "?";
}

void FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.node != b.node) return a.node < b.node;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
}

void FaultPlan::validate(const Tree& tree) const {
  const std::size_t n = uidx(tree.node_count());
  std::vector<char> node_down(n, 0), edge_down(n, 0);
  Time prev = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "event " + std::to_string(i);
    if (e.t < 0.0) bad(where + ": negative time " + fmt(e.t));
    if (e.t < prev)
      bad(where + ": events not sorted by time (call normalize())");
    prev = e.t;
    if (e.node < 0 || uidx(e.node) >= n)
      bad(where + ": node " + std::to_string(e.node) + " out of range");
    if (tree.is_root(e.node))
      bad(where + ": the root (node " + std::to_string(e.node) +
          ") is the distribution center and cannot fail");
    switch (e.kind) {
      case FaultKind::kNodeDown:
        if (node_down[uidx(e.node)])
          bad(where + ": node " + std::to_string(e.node) + " is already down");
        node_down[uidx(e.node)] = 1;
        break;
      case FaultKind::kNodeUp:
        if (!node_down[uidx(e.node)])
          bad(where + ": node-up for node " + std::to_string(e.node) +
              " without a preceding node-down");
        node_down[uidx(e.node)] = 0;
        break;
      case FaultKind::kEdgeDown:
        if (edge_down[uidx(e.node)])
          bad(where + ": edge into node " + std::to_string(e.node) +
              " is already down");
        edge_down[uidx(e.node)] = 1;
        break;
      case FaultKind::kEdgeUp:
        if (!edge_down[uidx(e.node)])
          bad(where + ": edge-up for node " + std::to_string(e.node) +
              " without a preceding edge-down");
        edge_down[uidx(e.node)] = 0;
        break;
      case FaultKind::kSlow:
        if (!(e.factor > 0.0))
          bad(where + ": slow factor must be > 0 (got " + fmt(e.factor) + ")");
        break;
    }
  }
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"treesched-fault-plan-v1\",\n  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    os << "    {\"kind\": \"" << fault_kind_name(e.kind) << "\", \"t\": "
       << fmt(e.t) << ", \"node\": " << e.node;
    if (e.kind == FaultKind::kSlow) os << ", \"factor\": " << fmt(e.factor);
    os << "}" << (i + 1 < events.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

FaultPlan parse_plan_json(const std::string& text) {
  JsonScanner in(text);
  FaultPlan plan;
  bool schema_seen = false;
  in.expect('{');
  if (!in.consume('}')) {
    do {
      const std::string key = in.string_value();
      in.expect(':');
      if (key == "schema") {
        const std::string schema = in.string_value();
        if (schema != "treesched-fault-plan-v1")
          bad("unsupported schema '" + schema + "'");
        schema_seen = true;
      } else if (key == "events") {
        in.expect('[');
        if (!in.consume(']')) {
          do {
            in.expect('{');
            FaultEvent e;
            bool has_kind = false, has_t = false, has_node = false;
            if (!in.consume('}')) {
              do {
                const std::string field = in.string_value();
                in.expect(':');
                if (field == "kind") {
                  e.kind = parse_kind(in.string_value());
                  has_kind = true;
                } else if (field == "t") {
                  e.t = in.number_value();
                  has_t = true;
                } else if (field == "node") {
                  const double v = in.number_value();
                  e.node = static_cast<NodeId>(v);
                  if (static_cast<double>(e.node) != v)
                    bad("event node must be an integer (got " + fmt(v) + ")");
                  has_node = true;
                } else if (field == "factor") {
                  e.factor = in.number_value();
                } else {
                  bad("unknown event field '" + field + "'");
                }
              } while (in.consume(','));
              in.expect('}');
            }
            if (!has_kind || !has_t || !has_node)
              bad("event " + std::to_string(plan.events.size()) +
                  " needs \"kind\", \"t\" and \"node\"");
            plan.events.push_back(e);
          } while (in.consume(','));
          in.expect(']');
        }
      } else {
        bad("unknown top-level key '" + key + "'");
      }
    } while (in.consume(','));
    in.expect('}');
  }
  in.done();
  if (!schema_seen) bad("missing \"schema\" key");
  plan.normalize();
  return plan;
}

FaultPlan read_plan_file(const std::string& path) {
  const std::optional<std::string> json = util::read_file(path);
  if (!json) throw std::invalid_argument("cannot open fault plan: " + path);
  return parse_plan_json(*json);
}

void write_plan_file(const std::string& path, const FaultPlan& plan) {
  util::write_file_atomic(path, plan.to_json());
}

}  // namespace treesched::fault
