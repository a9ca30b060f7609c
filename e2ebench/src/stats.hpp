#pragma once

// Order statistics for the benchmark's latency metrics.
//
// Quantiles use the nearest-rank definition: the q-quantile of n samples is
// the sample at 1-based rank ceil(q * n) of the sorted values.  A tail
// quantile is only reported when at least kTailSamples samples lie beyond
// it (above its rank), so a p99 needs n >= 1000.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

inline constexpr std::size_t kTailSamples = 10;

/// 1-based rank of the nearest-rank q-quantile of n samples (n >= 1).
[[nodiscard]] inline std::size_t quantile_rank(std::size_t n, double q) {
  // The epsilon keeps q * n from rounding up past an exact integer
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  const double exact = q * static_cast<double>(n) - 1e-9;
  const auto rank = static_cast<std::size_t>(std::max(0.0, std::ceil(exact)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the q-quantile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - quantile_rank(n, q);
}

/// True when n samples leave at least kTailSamples beyond the q-quantile.
[[nodiscard]] inline bool supports_quantile(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kTailSamples;
}

/// The highest of {99.9, 99, 95, 90, 75, 50}% that n samples support, or 0
/// when they support none of them.
[[nodiscard]] inline double highest_supported_quantile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (supports_quantile(n, q)) return q;
  }
  return 0.0;
}

/// The smallest sample count that supports the q-quantile.
[[nodiscard]] inline std::size_t min_samples_for(double q) {
  std::size_t n = kTailSamples;
  while (!supports_quantile(n, q)) ++n;
  return n;
}

/// Nearest-rank q-quantile of `values` (0 for an empty sample).
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t index = quantile_rank(values.size(), q) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

/// a / b, or 0 when b is 0 (a layer that did no work reports 0, not NaN).
[[nodiscard]] inline double ratio(double a, double b) {
  return b == 0.0 ? 0.0 : a / b;
}

/// A stretch of a measured window: its length and the latencies of the
/// requests answered in it.
struct Slice {
  double seconds = 0.0;
  std::vector<double> latency_s;
};

/// The calm part of a run: the slices that answered fastest.
struct CalmSample {
  std::vector<double> latency_s;
  double seconds = 0.0;
  std::size_t slices = 0;
};

/// The fastest half of `slices` by throughput (requests per second), or as
/// many more of the fastest as it takes to reach `min_samples` latencies.
/// A burst of contention on a shared machine slows the slices it falls in;
/// leaving out the slower half keeps such bursts out of the metrics, while
/// a slower program slows every slice and still shows.
[[nodiscard]] inline CalmSample calm_sample(std::vector<Slice> slices,
                                            std::size_t min_samples) {
  std::stable_sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return static_cast<double>(a.latency_s.size()) * b.seconds >
           static_cast<double>(b.latency_s.size()) * a.seconds;
  });
  CalmSample calm;
  const std::size_t half = (slices.size() + 1) / 2;
  for (const Slice& slice : slices) {
    if (calm.slices >= half && calm.latency_s.size() >= min_samples) break;
    calm.latency_s.insert(calm.latency_s.end(), slice.latency_s.begin(),
                          slice.latency_s.end());
    calm.seconds += slice.seconds;
    ++calm.slices;
  }
  return calm;
}

}  // namespace e2e
