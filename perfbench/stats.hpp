// The benchmark's own arithmetic: percentiles that count refused requests as
// misses, operation accounting, and span self time. Header-only and free of
// library dependencies so the self-test exercises exactly this code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Attempted / succeeded / failed for one phase of a workload. Every
/// attempted operation ends up in exactly one of the other two.
struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    (ok ? succeeded : failed) += 1;
  }
  Counts& operator+=(const Counts& o) {
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
    return *this;
  }
  bool consistent() const { return attempted == succeeded + failed; }
};

/// One percentile of a latency population, with the evidence behind it.
struct Percentile {
  double q = 0;            // in (0, 1]
  double value = 0;        // seconds; +inf when the rank lands on a miss
  std::uint64_t samples = 0;  // population size, misses included
  std::uint64_t beyond = 0;   // members strictly above `value` (misses count)
  bool is_miss() const { return std::isinf(value); }
};

/// Nearest-rank percentile of `samples`, where +inf marks a miss: a refused
/// or failed request, worse than any latency, so it never meets a limit.
/// Rank k = ceil(q * n), 1-based; a rank that lands on a miss reads +inf.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, p.samples);
  p.value = samples[rank - 1];
  p.beyond = static_cast<std::uint64_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p.value));
  return p;
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A closed interval of one span, in seconds from an arbitrary origin.
struct Interval {
  double start = 0;
  double end = 0;
};

/// Length of the part of [parent.start, parent.end] that the union of
/// `children` covers; overlapping children are counted once.
inline double covered(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0, cursor = parent.start;
  for (const Interval& c : children) {
    const double s = std::max(c.start, cursor);
    const double e = std::min(c.end, parent.end);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

/// Self time of each span: its duration minus what its direct children
/// cover. `parent[i]` is the index of span i's parent, or -1.
inline std::vector<double> self_times(const std::vector<Interval>& spans,
                                      const std::vector<int>& parent) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (parent[i] >= 0) children[static_cast<std::size_t>(parent[i])].push_back(spans[i]);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[i] = (spans[i].end - spans[i].start) - covered(spans[i], children[i]);
  return out;
}

}  // namespace perfbench
