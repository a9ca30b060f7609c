#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "approx/pricing.hpp"
#include "core/profile.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// `used` reads exactly like a fresh profile of its width.
void expect_fresh(const Profile& used) {
  const Profile fresh(used.strip_width());
  EXPECT_EQ(used.peak(), fresh.peak());
  for (Length x = 0; x < used.strip_width(); ++x) {
    ASSERT_EQ(used.load_at(x), fresh.load_at(x)) << "x=" << x;
    ASSERT_EQ(used.next_change(x), fresh.next_change(x)) << "x=" << x;
  }
}

TEST(Profile, ResetMatchesFreshInstance) {
  Profile used(64);
  used.add(3, 10, 7);
  used.raise_to(20, 8, 12);
  used.reset();
  expect_fresh(used);
  // And the reset profile behaves like new for the searches.
  used.add(0, 4, 5);
  EXPECT_EQ(used.first_fit(4, 1, 3), std::optional<Length>(4));
  EXPECT_EQ(used.min_peak_position(4).start, 4);

  Profile narrow(48);
  narrow.add(1, 9, 4);
  narrow.raise_to(30, 10, 9);
  narrow.reset();
  expect_fresh(narrow);
}

TEST(Pricing, ScratchReuseIsEquivalent) {
  using approx::PricedConfig;
  using approx::PricingScratch;
  using approx::price_knapsack;
  const std::vector<Height> heights = {9, 7, 4, 3, 1};
  Rng rng(20260809);
  PricingScratch reused;
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values(heights.size());
    for (double& v : values) {
      v = static_cast<double>(rng.uniform(0, 1000)) / 100.0;
    }
    // One mid-sequence capacity (gcd 1) exceeds the DP cell limit, so the
    // DP is clamped and the rounds after it reuse its large buffers.
    const bool clamped = round == 10;
    const Height capacity =
        clamped ? static_cast<Height>(2 * approx::kPricingDpCellLimit)
                : static_cast<Height>(rng.uniform(1, 64));
    PricingScratch fresh;
    const PricedConfig a = price_knapsack(heights, values, capacity, reused);
    const PricedConfig b = price_knapsack(heights, values, capacity, fresh);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.exact, b.exact);
    EXPECT_EQ(a.exact, !clamped) << "round " << round;
    Height used = 0;
    for (std::size_t c = 0; c < heights.size(); ++c) {
      used += a.config[c] * heights[c];
    }
    EXPECT_LE(used, capacity) << "round " << round;
  }
}

}  // namespace
}  // namespace dsp
