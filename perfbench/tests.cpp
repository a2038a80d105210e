// Unit tests of the benchmark's own measurement rules (harness.hpp):
// the tail-percentile rule, the metric-name charset, failed-share
// accounting and span self-time arithmetic. Build target perfbench_tests;
// `python3 perfbench/run.py --self-test` builds and runs it.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void tail_rule() {
  // Nearest rank: the q-percentile of n samples is element ceil(q*n).
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(1000, 0.999) == 1);
  EXPECT(samples_beyond(100, 0.9) == 10);
  EXPECT(samples_beyond(99, 0.9) == 9);
  EXPECT(tail_quantile(10000) == 0.999);
  EXPECT(tail_quantile(9999) == 0.99);
  EXPECT(tail_quantile(1000) == 0.99);
  EXPECT(tail_quantile(999) == 0.9);
  EXPECT(tail_quantile(100) == 0.9);
  EXPECT(tail_quantile(99) == 0.5);
  EXPECT(tail_quantile(20) == 0.5);
  EXPECT(tail_quantile(3) == 0.5);  // fallback: always defined

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile_sorted(v, 0.5) == 50);
  EXPECT(percentile_sorted(v, 0.9) == 90);
  EXPECT(percentile_sorted(v, 0.99) == 99);
  const Summary s = summarize({5, 1, 4, 2, 3});
  EXPECT(s.n == 5 && s.p50 == 3 && s.tail_q == 0.5 && s.tail == 3);
  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back(999 - i);
  const Summary b = summarize(big);
  EXPECT(b.tail_q == 0.99 && b.tail == 989);  // ten samples lie beyond
  EXPECT(median({4, 1, 3, 2}) == 2.5);
}

void metric_names() {
  EXPECT(valid_metric_name("sim_qps"));
  EXPECT(valid_metric_name("sim_latency_p50_ms.r50"));
  EXPECT(valid_metric_name("stage.kernel-launch.host_s"));
  EXPECT(valid_metric_name("9lives"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_lead"));
  EXPECT(!valid_metric_name(".lead"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/y"));
  EXPECT(!valid_metric_name("p99%"));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
}

void ledger() {
  Ledger l;
  EXPECT(l.failed_share() == 0 && l.success_share() == 1);
  l.ok(97);
  EXPECT(l.check(true, "fine"));
  EXPECT(!l.check(false, "broken"));
  l.fail("rejected", 2);
  EXPECT(l.attempted == 101 && l.failed == 3);
  EXPECT(near(l.failed_share(), 3.0 / 101));
  EXPECT(near(l.success_share(), 98.0 / 101));
  EXPECT(l.failures.size() == 2 && l.failures[0] == "broken");
  for (int i = 0; i < 40; ++i) l.fail("x");
  EXPECT(l.failures.size() == 16);  // messages capped, counts are not
  EXPECT(l.failed == 43);
}

void span_self_time() {
  SpanLog log;
  const auto root = log.add("batch", 0, -1, 0.0, 10.0);
  log.add("a", 0, root, 1.0, 3.0);
  log.add("b", 0, root, 2.0, 5.0);   // overlaps a: covered 1..5
  log.add("c", 0, root, 8.0, 12.0);  // sticks out: only 8..10 counts
  const auto other = log.add("batch", 1, -1, 20.0, 21.0);
  log.add("d", 1, other, 20.5, 21.0);
  EXPECT(near(log.self_time(0), 10.0 - 4.0 - 2.0));
  EXPECT(near(log.self_time(1), 2.0));  // leaf: self == duration
  EXPECT(near(log.self_time(4), 0.5));

  const auto totals = log.by_name();
  EXPECT(totals.at("batch").count == 2);
  EXPECT(near(totals.at("batch").self, 4.5));
  EXPECT(near(totals.at("batch").total, 11.0));

  // Grandchildren only reduce their own parent's self time.
  SpanLog nest;
  const auto r = nest.add("r", 0, -1, 0, 10);
  const auto c = nest.add("c", 0, r, 0, 6);
  nest.add("g", 0, c, 1, 5);
  EXPECT(near(nest.self_time(0), 4));
  EXPECT(near(nest.self_time(1), 2));

  SpanLog off(false);
  EXPECT(off.open("x", 0) == -1);
  off.close(-1);
  EXPECT(off.spans().empty());
}

void digest() {
  Digest a, b;
  a.f64(0.1);
  a.u64(7);
  b.f64(0.1);
  b.u64(7);
  EXPECT(a.value() == b.value());
  Digest c;
  c.f64(std::nextafter(0.1, 1.0));  // one ulp apart must differ
  c.u64(7);
  EXPECT(a.value() != c.value());
}

}  // namespace

int main() {
  tail_rule();
  metric_names();
  ledger();
  span_self_time();
  digest();
  if (g_failures == 0) {
    std::printf("perfbench_tests: all passed\n");
    return 0;
  }
  std::printf("perfbench_tests: %d failed\n", g_failures);
  return 1;
}
