// Checks of the benchmark's own arithmetic (src/stats.h). Runs before
// every benchmark invocation; exits nonzero on the first failed check.
//
//   .bench_build/servebench/servebench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                     \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

using namespace servebench;

void test_percentile_with_count() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const Percentile p50 = percentile(v, 0.5);
  CHECK(p50.value == 50.0);
  CHECK(p50.n == 100);
  CHECK(p50.beyond == 50);
  const Percentile p90 = percentile(v, 0.9);
  CHECK(p90.value == 90.0);
  CHECK(p90.beyond == 10);
  const Percentile p99 = percentile(v, 0.99);
  CHECK(p99.value == 99.0);
  CHECK(p99.beyond == 1);  // one sample beyond: not a p99 to trust
  const Percentile top = percentile(v, 1.0);
  CHECK(top.value == 100.0);
  CHECK(top.beyond == 0);
  // Nearest rank rounds up: p90 of 15 samples is the 14th smallest.
  std::vector<double> w;
  for (int i = 1; i <= 15; ++i) w.push_back(i);
  CHECK(percentile(w, 0.9).value == 14.0);
  CHECK(percentile(w, 0.9).beyond == 1);
  CHECK(percentile({}, 0.5).n == 0);
  CHECK(percentile({7.0}, 0.5).value == 7.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
}

void test_poisson_schedule() {
  const auto a = poisson_schedule_ns(42, 2000.0, 2.0);
  const auto b = poisson_schedule_ns(42, 2000.0, 2.0);
  const auto c = poisson_schedule_ns(43, 2000.0, 2.0);
  CHECK(a == b);  // same seed, same schedule
  CHECK(a != c);  // another seed, another schedule
  // ~4000 arrivals; a Poisson count's sd is ~63, so 5 sd either way.
  CHECK(a.size() > 3680 && a.size() < 4320);
  bool ordered = true;
  for (size_t i = 1; i < a.size(); ++i) ordered &= a[i] >= a[i - 1];
  CHECK(ordered);
  CHECK(!a.empty() && a.front() >= 0 && a.back() < 2'000'000'000);
  // Mean gap close to 1/rate (500 us) within 5%.
  const double mean_gap = static_cast<double>(a.back()) /
                          static_cast<double>(a.size());
  CHECK(std::fabs(mean_gap - 500'000.0) < 25'000.0);
  CHECK(poisson_schedule_ns(1, 0.0, 1.0).empty());
}

void test_latency_from_due() {
  // Due at 1 ms, sent late at 3 ms, answered at 4 ms: the latency is
  // 3 ms, not the 1 ms a send-time clock would show.
  CHECK(latency_from_due_ns(1'000'000, 4'000'000) == 3'000'000);
  CHECK(latency_from_due_ns(5, 5) == 0);
}

void test_self_time() {
  // Parent 0..100 with children 10..30 and 20..50 (overlap counted
  // once) and 90..120 (clipped at the parent's end): 100 - 40 - 10.
  CHECK(self_time({0, 100}, {{10, 30}, {20, 50}, {90, 120}}) == 50);
  CHECK(self_time({0, 100}, {}) == 100);
  CHECK(self_time({0, 100}, {{0, 100}}) == 0);
  CHECK(self_time({0, 100}, {{-10, 5}}) == 95);
  CHECK(self_time({0, 100}, {{200, 300}}) == 100);
  // A network call of 150 us around a 90 us backend span.
  CHECK(self_time({0, 150}, {{0, 90}}) == 60);
}

}  // namespace

int main() {
  test_percentile_with_count();
  test_poisson_schedule();
  test_latency_from_due();
  test_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "servebench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("servebench_selftest: all checks passed\n");
  return 0;
}
