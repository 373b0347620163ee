#include "treesched/guard/health.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "treesched/util/fs.hpp"

namespace treesched::guard {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::optional<double> json_number_field(const std::string& doc,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = doc.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t i = pos + needle.size();
  while (i < doc.size() && std::isspace(static_cast<unsigned char>(doc[i])))
    ++i;
  try {
    std::size_t used = 0;
    const double v = std::stod(doc.substr(i), &used);
    if (used == 0) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::string> json_string_field(const std::string& doc,
                                             const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = doc.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < doc.size() &&
         std::isspace(static_cast<unsigned char>(doc[pos])))
    ++pos;
  if (pos >= doc.size() || doc[pos] != '"') return std::nullopt;
  const auto end = doc.find('"', pos + 1);
  if (end == std::string::npos) return std::nullopt;
  return doc.substr(pos + 1, end - pos - 1);
}

std::string encode_child_status(const ChildStatus& s) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"treesched-child-status-v1\",\n"
     << "  \"arrivals\": " << s.arrivals << ",\n"
     << "  \"window\": " << s.window << ",\n"
     << "  \"rho_hat\": " << fmt_double(s.rho_hat) << ",\n"
     << "  \"stage\": \"" << stage_name(s.stage) << "\",\n"
     << "  \"t_s\": " << fmt_double(s.t_s) << "\n"
     << "}\n";
  return os.str();
}

void write_child_status(const std::string& path, const ChildStatus& s) {
  util::write_file_atomic(path, encode_child_status(s));
}

std::optional<ChildStatus> read_child_status(const std::string& path) {
  const auto doc = util::read_file(path);
  if (!doc) return std::nullopt;
  const auto schema = json_string_field(*doc, "schema");
  if (!schema || *schema != "treesched-child-status-v1") return std::nullopt;
  ChildStatus s;
  if (const auto v = json_number_field(*doc, "arrivals"))
    s.arrivals = static_cast<std::uint64_t>(*v);
  if (const auto v = json_number_field(*doc, "window"))
    s.window = static_cast<std::uint64_t>(*v);
  if (const auto v = json_number_field(*doc, "rho_hat")) s.rho_hat = *v;
  if (const auto v = json_string_field(*doc, "stage")) {
    try {
      s.stage = parse_stage(*v);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }
  if (const auto v = json_number_field(*doc, "t_s")) s.t_s = *v;
  return s;
}

std::string encode_health(const HealthStatus& h) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"treesched-health-v1\",\n"
     << "  \"pid\": " << h.pid << ",\n"
     << "  \"state\": \"" << h.state << "\",\n"
     << "  \"restarts\": " << h.restarts << ",\n"
     << "  \"consecutive_crashes\": " << h.consecutive_crashes << ",\n"
     << "  \"last_exit_code\": " << h.last_exit_code << ",\n"
     << "  \"last_signal\": " << h.last_signal;
  // Child fields only when a child status was merged: the reader keys
  // have_child off the presence of `arrivals`, so emitting zeros here would
  // fabricate a child on the round trip.
  if (h.have_child)
    os << ",\n"
       << "  \"arrivals\": " << h.child.arrivals << ",\n"
       << "  \"window\": " << h.child.window << ",\n"
       << "  \"rho_hat\": " << fmt_double(h.child.rho_hat) << ",\n"
       << "  \"stage\": \"" << stage_name(h.child.stage) << "\"\n";
  else
    os << "\n";
  os << "}\n";
  return os.str();
}

void write_health(const std::string& path, const HealthStatus& h) {
  util::write_file_atomic(path, encode_health(h));
}

std::optional<HealthStatus> read_health(const std::string& path) {
  const auto doc = util::read_file(path);
  if (!doc) return std::nullopt;
  const auto schema = json_string_field(*doc, "schema");
  if (!schema || *schema != "treesched-health-v1") return std::nullopt;
  HealthStatus h;
  if (const auto v = json_number_field(*doc, "pid"))
    h.pid = static_cast<int>(*v);
  if (const auto v = json_string_field(*doc, "state")) h.state = *v;
  if (const auto v = json_number_field(*doc, "restarts"))
    h.restarts = static_cast<std::uint64_t>(*v);
  if (const auto v = json_number_field(*doc, "consecutive_crashes"))
    h.consecutive_crashes = static_cast<std::uint64_t>(*v);
  if (const auto v = json_number_field(*doc, "last_exit_code"))
    h.last_exit_code = static_cast<int>(*v);
  if (const auto v = json_number_field(*doc, "last_signal"))
    h.last_signal = static_cast<int>(*v);
  if (const auto v = json_number_field(*doc, "arrivals")) {
    h.have_child = true;
    h.child.arrivals = static_cast<std::uint64_t>(*v);
  }
  if (const auto v = json_number_field(*doc, "window"))
    h.child.window = static_cast<std::uint64_t>(*v);
  if (const auto v = json_number_field(*doc, "rho_hat")) h.child.rho_hat = *v;
  if (const auto v = json_string_field(*doc, "stage")) {
    try {
      h.child.stage = parse_stage(*v);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  }
  return h;
}

}  // namespace treesched::guard
