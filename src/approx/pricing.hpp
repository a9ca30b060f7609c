#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/instance.hpp"

namespace dsp::approx {

/// A configuration: count per rounded-height class (indexed as in the
/// caller's class setup).
using Config = std::vector<int>;

/// Result of one pricing knapsack: the configuration maximizing
/// sum_h config[h] * value[h] subject to sum_h config[h] * height[h] <= cap.
struct PricedConfig {
  double value = 0.0;
  Config config;
  /// False when the DP capacity had to be clamped (astronomical capacity /
  /// tiny heights); the returned configuration is then still feasible but
  /// possibly not the maximizer.
  bool exact = true;
};

/// Unbounded-knapsack DP cells allowed per pricing call; capacities are
/// normalized by the gcd of the contributing heights first, so in practice
/// the clamp is never hit (it guards degenerate huge-capacity inputs).
inline constexpr std::size_t kPricingDpCellLimit = std::size_t{1} << 18;

/// Exact pricing oracle: bounded knapsack over the rounded height classes
/// (counts limited only by capacity, as in the configuration definition).
/// Deterministic: classes are scanned in ascending index order and only a
/// strict improvement replaces a choice, so ties resolve to the lowest
/// class and the reconstruction is schedule-independent.
///
/// The DP inner loop is batched: contributing entries are packed into
/// contiguous weight/value arrays (SoA) up front, so the per-cell scan
/// streams two flat arrays instead of hopping across an array of structs.
/// The result is bit-identical to the historical struct-of-entries loop —
/// same scan order, same strict-improvement tie-break, same double
/// arithmetic.
[[nodiscard]] PricedConfig price_knapsack(std::span<const Height> heights,
                                          std::span<const double> values,
                                          Height capacity);

}  // namespace dsp::approx
