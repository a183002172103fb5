// Tests of the benchmark's own helpers: percentiles with their sample
// counts, and span self time.  Exit status 0 when all pass.
//
//   ctest --test-dir .bench_build -R perfbench_util_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++g_failures;
  }
}

perfbench::Span span(double start, double end, std::int64_t parent) {
  perfbench::Span s;
  s.layer = "test";
  s.name = "span";
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void percentiles() {
  using perfbench::percentile;
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  expect_near(percentile(xs, 50).value, 3.0, "median of 1..5");
  expect_near(static_cast<double>(percentile(xs, 50).samples), 5.0, "sample count");
  expect_near(percentile(xs, 0).value, 1.0, "p0 is the minimum");
  expect_near(percentile(xs, 100).value, 5.0, "p100 is the maximum");
  expect_near(percentile(xs, 90).value, 4.6, "p90 interpolates");
  expect_near(percentile({1.0, 2.0}, 50).value, 1.5, "even-count median");
  expect_near(percentile({7.0}, 99).value, 7.0, "single sample");
  expect_near(static_cast<double>(percentile({}, 50).samples), 0.0, "empty has no samples");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 99).value, 99.01, "p99 of 1..100");
  expect_near(static_cast<double>(percentile(hundred, 99).samples), 100.0, "p99 sample count");
}

void self_time() {
  using perfbench::self_times;
  // 0: [0, 10] with children 1: [1, 3] and 2: [2, 6] (overlapping, union 1..6)
  // and grandchild 3: [4, 5] under 2.  4: [9, 12] sticks out of its parent
  // and is clipped to [9, 10].
  const std::vector<perfbench::Span> spans = {span(0, 10, -1), span(1, 3, 0), span(2, 6, 0),
                                              span(4, 5, 2), span(9, 12, 0)};
  const std::vector<double> self = self_times(spans);
  expect_near(self[0], 10.0 - 5.0 - 1.0, "parent minus union of children");
  expect_near(self[1], 2.0, "leaf keeps its duration");
  expect_near(self[2], 3.0, "child minus grandchild");
  expect_near(self[3], 1.0, "grandchild leaf");
  expect_near(self[4], 3.0, "leaf outside the parent keeps its own duration");
  const std::vector<double> one = self_times({span(2, 2.5, -1)});
  expect_near(one[0], 0.5, "lone span");
}

void tracer_nesting() {
  perfbench::Tracer& t = perfbench::Tracer::global();
  t.clear();
  t.enable(true);
  perfbench::Tracer::set_op(7);
  {
    const perfbench::Scope outer("core", "sweep");
    const perfbench::Scope inner("model", "run");
  }
  t.enable(false);
  {
    const perfbench::Scope ignored("core", "ignored");
  }
  const std::vector<perfbench::Span> spans = t.spans();
  expect_near(static_cast<double>(spans.size()), 2.0, "disabled tracer records nothing");
  expect_near(static_cast<double>(spans[1].parent), 0.0, "inner span's parent is the outer one");
  expect_near(static_cast<double>(spans[0].op), 7.0, "spans carry the operation id");
  expect_near(spans[0].end >= spans[1].end ? 1.0 : 0.0, 1.0, "outer span ends last");
  t.clear();
}

}  // namespace

int main() {
  percentiles();
  self_time();
  tracer_nesting();
  if (g_failures == 0) std::printf("perfbench_util_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
