#include "approx/pricing.hpp"

#include <numeric>

namespace dsp::approx {

PricedConfig price_knapsack(std::span<const Height> heights,
                            std::span<const double> values, Height capacity) {
  PricedConfig best;
  best.config.assign(heights.size(), 0);

  // Batch the contributing classes into flat SoA arrays: weight (height /
  // gcd), value and class index, in ascending class order (the
  // determinism-bearing scan order of the DP below).
  std::vector<std::size_t> entry_class;
  std::vector<std::size_t> entry_weight;
  std::vector<double> entry_value;
  Height g = 0;
  for (std::size_t c = 0; c < heights.size(); ++c) {
    if (values[c] > 1e-9 && heights[c] > 0 && heights[c] <= capacity) {
      g = std::gcd(g, heights[c]);
      entry_class.push_back(c);
      entry_value.push_back(values[c]);
    }
  }
  const std::size_t entries = entry_class.size();
  if (entries == 0) return best;  // only the empty configuration
  for (const std::size_t c : entry_class) {
    entry_weight.push_back(static_cast<std::size_t>(heights[c] / g));
  }
  auto cells = static_cast<std::size_t>(capacity / g);
  if (cells > kPricingDpCellLimit) {
    cells = kPricingDpCellLimit;
    best.exact = false;
  }

  std::vector<double> dp(cells + 1, 0.0);
  std::vector<int> choice(cells + 1, -1);  // -1: inherit w - 1
  for (std::size_t w = 1; w <= cells; ++w) {
    double best_w = dp[w - 1];
    int best_choice = -1;
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t weight = entry_weight[e];
      if (weight > w) continue;
      const double candidate = dp[w - weight] + entry_value[e];
      if (candidate > best_w + 1e-12) {
        best_w = candidate;
        best_choice = static_cast<int>(e);
      }
    }
    dp[w] = best_w;
    choice[w] = best_choice;
  }
  best.value = dp[cells];
  for (std::size_t w = cells; w > 0;) {
    if (choice[w] < 0) {
      --w;
      continue;
    }
    const auto e = static_cast<std::size_t>(choice[w]);
    ++best.config[entry_class[e]];
    w -= entry_weight[e];
  }
  return best;
}

}  // namespace dsp::approx
