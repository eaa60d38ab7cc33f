// The benchmark's own arithmetic: percentiles with their sample count,
// the seeded open-loop arrival schedule, latency timed from a request's
// due time, and span self time. Header-only and free of the serving
// stack, so servebench_selftest checks it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace servebench {

/// A percentile read off a sample, with the count it rests on and how
/// many samples lie strictly beyond its rank (a p99 with fewer than ten
/// samples beyond it says little).
struct Percentile {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` (in (0, 1]) of the sample at or below it. Empty sample -> n = 0.
inline Percentile percentile(std::vector<double> sample, double q) {
  Percentile p;
  p.n = sample.size();
  if (sample.empty()) return p;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<size_t>(rank, 1, p.n);
  std::nth_element(sample.begin(), sample.begin() + (rank - 1), sample.end());
  p.value = sample[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5).value;
}

/// splitmix64: a small self-contained generator, so the schedule for a
/// seed does not depend on any standard-library distribution.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Open-loop arrival schedule: offsets in ns from the phase start of a
/// Poisson process at `rate_per_s`, every offset < duration. The same
/// seed always yields the same schedule.
inline std::vector<int64_t> poisson_schedule_ns(uint64_t seed,
                                                double rate_per_s,
                                                double duration_s) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  SplitMix64 rng(seed);
  const double end_ns = duration_s * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.unit()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

/// Client-observed latency of an open-loop request: from when it was
/// due, not from when the generator got round to sending it, so a
/// stall also charges the requests queued behind it.
inline int64_t latency_from_due_ns(int64_t due_ns, int64_t done_ns) {
  return done_ns - due_ns;
}

struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Self time of a span: its length minus the part of it covered by
/// its children (overlapping children count once; parts of a child
/// outside the parent do not count).
inline int64_t self_time(Interval parent, std::vector<Interval> children) {
  const int64_t length = std::max<int64_t>(0, parent.end - parent.begin);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t cursor = parent.begin;
  for (const Interval& c : children) {
    const int64_t b = std::max(c.begin, cursor);
    const int64_t e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return length - covered;
}

}  // namespace servebench
