// Self-tests of the benchmark: seeded inputs are reproducible and
// seed-sensitive, the percentile helper picks the highest percentile with
// at least ten samples beyond it, and span self time is computed as the
// span minus the union of its children.
//
//   cmake -B .bench_build -S perfbench && cmake --build .bench_build -j
//   .bench_build/perfbench_tests
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  const auto p7 = fingerprint(make_paper_inputs(7, kPaperProbe));
  expect(p7 == fingerprint(make_paper_inputs(7, kPaperProbe)),
         "paper inputs: same seed, same inputs");
  expect(p7 != fingerprint(make_paper_inputs(8, kPaperProbe)),
         "paper inputs: another seed, other inputs");
  expect(fingerprint(make_compose_inputs(7)) == fingerprint(make_compose_inputs(7)),
         "compose inputs: same seed, same inputs");
  expect(fingerprint(make_compose_inputs(7)) != fingerprint(make_compose_inputs(8)),
         "compose inputs: another seed, other inputs");
  expect(fingerprint_draws(7, 0, 256) == fingerprint_draws(7, 0, 256),
         "serve draws: same seed, same sequence");
  expect(fingerprint_draws(7, 0, 256) != fingerprint_draws(8, 0, 256),
         "serve draws: another seed, another sequence");
  expect(fingerprint_draws(7, 0, 256) != fingerprint_draws(7, 1, 256),
         "serve draws: clients draw different sequences");

  expect(tail_percentile(10000) == 99.9, "n=10000: p99.9 keeps 10 beyond");
  expect(tail_percentile(9999) == 99.0, "n=9999: p99.9 keeps only 9, so p99");
  expect(tail_percentile(1000) == 99.0, "n=1000: p99 keeps exactly 10 beyond");
  expect(tail_percentile(999) == 95.0, "n=999: p99 keeps only 9, so p95");
  expect(tail_percentile(100) == 90.0, "n=100: p90");
  expect(tail_percentile(40) == 75.0, "n=40: p75");
  expect(tail_percentile(20) == 50.0, "n=20: the median keeps 10 beyond");
  expect(tail_percentile(19) == 0.0, "n=19: no percentile qualifies");

  const Summary s = summarize(ramp(1000), 90.0);
  expect(s.n == 1000 && s.tail_q == 90.0 && s.tail == 900.0,
         "fixed p90 of 1..1000 is 900 (nearest rank)");
  expect(s.median == 500.5, "median of 1..1000 is 500.5");
  const Summary fallback = summarize(ramp(50), 90.0);
  expect(fallback.tail_q == 75.0, "fixed p90 on 50 samples falls back to p75");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");

  // A stream of 100 items/s for 10 s, windows of 1 s.
  std::vector<double> steady;
  for (int i = 0; i < 1000; ++i) steady.push_back(0.005 + 0.01 * i);
  expect(std::abs(windowed_rate(steady, 10.0, 10) - 100.0) < 1e-6,
         "windowed rate of a steady stream: 100 items/s");
  std::vector<double> one_stall = steady;
  for (auto& t : one_stall) t += t > 3.0 ? 0.5 : 0.0;
  expect(std::abs(windowed_rate(one_stall, 10.5, 10) - 100.0) < 1e-6,
         "one 0.5 s stall leaves the median window alone");
  // Every tenth item takes 10x as long: every window is slower.
  std::vector<double> slow_tenth;
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    t += i % 10 == 9 ? 0.1 : 0.01;
    slow_tenth.push_back(t);
  }
  expect(windowed_rate(slow_tenth, t, 10) < 60.0,
         "a slowdown of one item in ten lowers the rate");
  expect(windowed_rate({}, 1.0, 10) == 0.0, "windowed rate of no items is 0");

  std::vector<Span> spans(4);
  spans[0] = Span{"root", "bench", 0, 100, 1, 0, 0, 1};
  spans[1] = Span{"a", "x", 10, 30, 2, 1, 0, 1};
  spans[2] = Span{"b", "y", 20, 50, 3, 1, 0, 2};
  spans[3] = Span{"c", "z", 25, 35, 4, 3, 0, 2};
  const SpanAnalysis a = analyze(spans);
  expect(a.root_ns == 100 && a.unattributed_ns == 60,
         "root self time = 100 - |[10,50)| = 60");
  expect(std::abs(a.self_ms_by_layer.at("y") - 20e-6) < 1e-15,
         "child self time = 30 - 10 = 20 ns");

  std::printf("%s\n", failures == 0 ? "all perfbench self-tests passed"
                                    : "perfbench self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
