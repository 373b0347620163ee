// Arithmetic of the end-to-end benchmark, kept free of treesched types so
// tests/math_test.cpp can check it without running a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (q in (0, 1]): the ceil(q * n)-th smallest value,
/// the same rank rule as Metrics::flow_percentile. Throws on empty input.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q outside (0, 1]");
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Median with the mean of the two middle values for even counts (the rule
/// of Python's statistics.median). Throws on empty input.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Where the timed phase of a traced run went, summed over repetitions.
/// `timed_s` is the host time of the measured call (Engine::run or
/// exec::run_stream); `assign_s` and `admit_s` are the self times of the
/// policy and admission decorators; `exec_s` is the durable stream's time
/// over its plain twin (0 for batch runs); `probe_s` is the time the traced
/// observer spent sampling index queries, which belongs to no layer.
struct TimeSplit {
  double timed_s = 0.0;
  double assign_s = 0.0;
  double admit_s = 0.0;
  double exec_s = 0.0;
  double probe_s = 0.0;

  /// Timed phase without the benchmark's own sampling.
  double layered_s() const { return timed_s - probe_s; }
  /// Engine self time: the layered time outside every other layer's span.
  double engine_self_s() const {
    return layered_s() - assign_s - admit_s - exec_s;
  }
  double share(double layer_s) const { return layer_s / layered_s(); }
};

/// Allocation counts of a traced run, by the layer that made them. `total`
/// counts every operator new of the measured phase; `in_assign` /
/// `in_admit` those made inside the policy / admission decorators;
/// `durable_delta` the extra allocations of a durable stream over its plain
/// twin (0 for batch runs).
struct AllocSplit {
  std::int64_t total = 0;
  std::int64_t in_assign = 0;
  std::int64_t in_admit = 0;
  std::int64_t durable_delta = 0;

  /// The remainder the engine owns, so that algo + overload + sim + durable
  /// sums to total.
  std::int64_t sim() const {
    return total - in_assign - in_admit - durable_delta;
  }
};

/// How a metric's value arises, so bounds can treat them differently.
enum class Kind {
  kTiming,    ///< host time or a ratio of host times
  kExact,     ///< count or simulated quantity, bit-identical per seed
  kMeasured,  ///< memory high-water mark, steady but not bit-exact
};

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTiming: return "timing";
    case Kind::kExact: return "exact";
    case Kind::kMeasured: return "measured";
  }
  return "?";
}

struct Metric {
  std::string name;
  std::string unit;
  Kind kind = Kind::kTiming;
  double value = 0.0;
};

/// Shortest decimal text that reads back to the same double; whole numbers
/// print without an exponent.
inline std::string number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric");
  char buf[40];
  if (v == std::trunc(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// The result line: one JSON object with exactly the keys correct,
/// attempted, failed and metrics. Metric names and units are plain
/// identifiers and need no escaping.
inline std::string result_json(bool correct, std::int64_t attempted,
                               std::int64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
