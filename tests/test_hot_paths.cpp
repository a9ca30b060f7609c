#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "approx/pricing.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// The best value of any configuration within `capacity`, by enumerating
/// every count vector (classes after `cls` are still free).
double brute_force_knapsack(const std::vector<Height>& heights,
                            const std::vector<double>& values,
                            std::size_t cls, Height capacity) {
  if (cls == heights.size()) return 0.0;
  double best = 0.0;
  for (Height count = 0; count * heights[cls] <= capacity; ++count) {
    best = std::max(best, static_cast<double>(count) * values[cls] +
                              brute_force_knapsack(heights, values, cls + 1,
                                                   capacity -
                                                       count * heights[cls]));
  }
  return best;
}

TEST(Pricing, MatchesBruteForceKnapsack) {
  using approx::PricedConfig;
  using approx::price_knapsack;
  const std::vector<Height> heights = {9, 7, 4, 3, 1};
  Rng rng(20260809);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values(heights.size());
    for (double& v : values) {
      v = static_cast<double>(rng.uniform(0, 1000)) / 100.0;
    }
    // One capacity (gcd 1) exceeds the DP cell limit, so the DP is clamped:
    // the configuration must stay feasible, its optimality is not claimed.
    const bool clamped = round == 10;
    const Height capacity =
        clamped ? static_cast<Height>(2 * approx::kPricingDpCellLimit)
                : static_cast<Height>(rng.uniform(1, 64));
    const PricedConfig priced = price_knapsack(heights, values, capacity);
    EXPECT_EQ(priced.exact, !clamped) << "round " << round;
    Height used = 0;
    double value = 0.0;
    for (std::size_t c = 0; c < heights.size(); ++c) {
      EXPECT_GE(priced.config[c], 0);
      used += priced.config[c] * heights[c];
      value += priced.config[c] * values[c];
    }
    EXPECT_LE(used, capacity) << "round " << round;
    // The DP sums its value one cell at a time: equal up to roundoff.
    EXPECT_NEAR(value, priced.value, 1e-9 * (1.0 + value))
        << "round " << round;
    if (!clamped) {
      EXPECT_NEAR(priced.value,
                  brute_force_knapsack(heights, values, 0, capacity), 1e-9)
          << "round " << round << " capacity " << capacity;
    }
  }
}

}  // namespace
}  // namespace dsp
