// Checks the benchmark's own arithmetic: percentile and median rank rules,
// self-time subtraction, the allocation-attribution sum and the result line.
// Build and run with: ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_math.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(perfbench::percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(perfbench::percentile(v, 1.0) == 100.0, "p100 is the maximum");
  expect(perfbench::percentile(v, 0.001) == 1.0, "tiny q is the minimum");
  expect(perfbench::percentile({5.0}, 0.99) == 5.0, "single sample");
  // ceil(0.99 * 101) = 100: the 100th smallest of 0..100 is 99.
  std::vector<double> w;
  for (int i = 0; i <= 100; ++i) w.push_back(i);
  expect(perfbench::percentile(w, 0.99) == 99.0, "nearest rank rounds up");
  expect(throws([] { perfbench::percentile({}, 0.5); }), "empty throws");
  expect(throws([] { perfbench::percentile({1.0}, 0.0); }), "q = 0 throws");
}

void test_median() {
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd count: middle");
  expect(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "even count: mean of the two middle values");
  expect(throws([] { perfbench::median({}); }), "empty throws");
}

void test_time_split() {
  perfbench::TimeSplit t{10.0, 5.0, 2.0, 0.0, 1.0};
  expect(t.layered_s() == 9.0, "probe time leaves the layered time");
  expect(t.engine_self_s() == 2.0, "engine self = layered - assign - admit");
  const double sum =
      t.share(t.assign_s) + t.share(t.admit_s) + t.share(t.engine_self_s());
  expect(sum > 1.0 - 1e-12 && sum < 1.0 + 1e-12, "batch shares sum to 1");
  perfbench::TimeSplit s{8.0, 0.0, 0.0, 2.0, 0.0};
  expect(s.engine_self_s() == 6.0, "durable time leaves the engine self time");
  expect(s.share(s.exec_s) == 0.25, "durability share of the timed phase");
}

void test_alloc_split() {
  perfbench::AllocSplit a{1000, 300, 200, 100};
  expect(a.sim() == 400, "sim owns the remainder");
  expect(a.in_assign + a.in_admit + a.sim() + a.durable_delta == a.total,
         "layers sum to the total");
  perfbench::AllocSplit b{50, 0, 0, 0};
  expect(b.sim() == 50, "no decorators: everything is sim");
}

void test_result_line() {
  const std::string line = perfbench::result_json(
      true, 8000, 0,
      {{"jobs_per_s", "1/s", perfbench::Kind::kTiming, 81234.5},
       {"setup_s", "s", perfbench::Kind::kTiming, 0.0251}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 8000, \"failed\": 0, "
             "\"metrics\": {\"jobs_per_s\": {\"value\": 81234.5, \"unit\": "
             "\"1/s\"}, \"setup_s\": {\"value\": 0.0251, \"unit\": \"s\"}}}",
         "result line layout");
  expect(perfbench::number(0.1) == "0.1", "shortest round-trip text");
  expect(perfbench::number(30.0) == "30", "whole numbers without exponent");
  expect(std::stod(perfbench::number(1.0 / 3.0)) == 1.0 / 3.0,
         "number keeps every digit");
  expect(throws([] { perfbench::number(0.0 / 0.0); }), "NaN is refused");
}

}  // namespace

int main() {
  test_percentile();
  test_median();
  test_time_split();
  test_alloc_split();
  test_result_line();
  if (g_failures == 0) std::printf("all perfbench math checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
