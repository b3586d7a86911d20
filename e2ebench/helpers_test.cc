// Tests of the benchmark's own helpers: the percentile rule and its
// sample counts, span self time under overlapping children, and metric
// name validation. Exits non-zero if any expectation fails.
//
// Build and run: cmake --build .bench_build/e2ebench --target
// e2ebench_helpers_test && .bench_build/e2ebench/e2ebench_helpers_test

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "helpers_test.cc:%d: expectation failed: %s\n", line,
                 what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentileRule() {
  using e2ebench::PercentileOf;
  using e2ebench::SamplesBeyond;
  // Ten samples beyond the percentile: n - ceil(q n) >= 10.
  EXPECT(SamplesBeyond(20, 0.5) == 10);
  EXPECT(SamplesBeyond(19, 0.5) == 9);
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(SamplesBeyond(99, 0.9) == 9);
  EXPECT(SamplesBeyond(0, 0.5) == 0);

  // Enough samples: interpolated quantile, count reported.
  e2ebench::Percentile p50 = PercentileOf(Iota(20), 0.5);
  EXPECT(p50.supported);
  EXPECT(p50.samples == 20);
  EXPECT(Near(p50.value, 10.5));
  e2ebench::Percentile p90 = PercentileOf(Iota(100), 0.9);
  EXPECT(p90.supported);
  EXPECT(p90.samples == 100);
  EXPECT(Near(p90.value, 90.1));

  // Too few beyond: flagged, and the sample maximum bounds it from above.
  e2ebench::Percentile short90 = PercentileOf(Iota(99), 0.9);
  EXPECT(!short90.supported);
  EXPECT(short90.samples == 99);
  EXPECT(Near(short90.value, 99.0));
  e2ebench::Percentile short50 = PercentileOf({3.0, 1.0, 2.0}, 0.5);
  EXPECT(!short50.supported);
  EXPECT(Near(short50.value, 3.0));

  e2ebench::Percentile empty = PercentileOf({}, 0.5);
  EXPECT(!empty.supported);
  EXPECT(empty.samples == 0);

  // Order of the input does not matter.
  std::vector<double> reversed = Iota(40);
  std::vector<double> forward = reversed;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT(Near(PercentileOf(reversed, 0.5).value,
              PercentileOf(forward, 0.5).value));
}

void TestSelfTimeWithOverlappingChildren() {
  using e2ebench::Span;
  // A replay span [0, 10) whose three children ran on three threads:
  // [1, 5), [2, 6) and [4, 8) overlap; their union is [1, 8) = 7 s.
  std::vector<Span> spans = {
      {"replay.eval", 0.0, 10.0, -1, 1},
      {"eval.trial", 1.0, 5.0, 0, 1},
      {"eval.trial", 2.0, 6.0, 0, 1},
      {"eval.trial", 4.0, 8.0, 0, 1},
  };
  std::vector<double> self = e2ebench::SelfTimes(spans);
  EXPECT(Near(self[0], 3.0));  // not 10 - 12 = -2
  EXPECT(Near(self[1], 4.0));
  auto by_layer = e2ebench::SelfTimeByLayer(spans);
  EXPECT(Near(by_layer["replay"], 3.0));
  EXPECT(Near(by_layer["eval"], 12.0));

  // A child sticking out of its parent only counts inside the parent.
  std::vector<Span> clipped = {{"core.step", 0.0, 2.0, -1, 1},
                               {"eval.trial", 1.0, 5.0, 0, 1}};
  EXPECT(Near(e2ebench::SelfTimes(clipped)[0], 1.0));

  // Disjoint children add up.
  EXPECT(Near(e2ebench::UnionLength({{0.0, 1.0}, {2.0, 3.0}, {2.5, 4.0}}),
              3.0));

  // Spans recorded by concurrent threads under one parent.
  e2ebench::Tracer tracer(true);
  const int64_t parent = tracer.Begin("replay.eval", -1, 7);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      e2ebench::ScopedSpan span(&tracer, "eval.trial", parent, 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.End(parent);
  const std::vector<Span> recorded = tracer.spans();
  EXPECT(recorded.size() == 4);
  const std::vector<double> recorded_self = e2ebench::SelfTimes(recorded);
  EXPECT(recorded_self[0] >= 0.0);
  EXPECT(recorded_self[0] < recorded[0].seconds());
  EXPECT(tracer.Durations("eval.trial").size() == 3);

  // A disabled tracer records nothing.
  e2ebench::Tracer off(false);
  { e2ebench::ScopedSpan span(&off, "core.step", -1, 1); }
  EXPECT(off.spans().empty());
}

void TestMetricNames() {
  using e2ebench::ValidMetricName;
  using e2ebench::ValidUnit;
  EXPECT(ValidMetricName("evals_per_s"));
  EXPECT(ValidMetricName("core.step_ms.p90"));
  EXPECT(ValidMetricName("ml.busy_s.logistic_regression"));
  EXPECT(ValidMetricName("9lives-x"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName(".hidden"));
  EXPECT(!ValidMetricName("_private"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/name"));
  EXPECT(!ValidMetricName("quote\"name"));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(ValidUnit("evals/s"));
  EXPECT(ValidUnit("%"));
  EXPECT(!ValidUnit(""));
  EXPECT(!ValidUnit("per second"));

  e2ebench::MetricSet metrics;
  EXPECT(metrics.Add("setup_s", 0.25, "s"));
  EXPECT(!metrics.Add("setup_s", 0.5, "s"));       // duplicate
  EXPECT(!metrics.Add("bad name", 1.0, "s"));      // invalid name
  EXPECT(!metrics.Add("nan_metric", NAN, "s"));    // not finite
  EXPECT(!metrics.ok());
  EXPECT(metrics.size() == 1);
  EXPECT(metrics.ResultJson(true, 3, 0) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTimeWithOverlappingChildren();
  TestMetricNames();
  if (failures == 0) std::printf("e2ebench helpers: all tests passed\n");
  return failures == 0 ? 0 : 1;
}
