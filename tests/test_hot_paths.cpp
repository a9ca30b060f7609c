#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "approx/pricing.hpp"
#include "core/occupancy.hpp"
#include "core/profile.hpp"
#include "core/window_maxima.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// Buffer lengths from a single column up: tiny arrays, primes and
/// non-powers of two, so every window width meets partial blocks.
const std::vector<std::size_t>& adversarial_sizes() {
  static const std::vector<std::size_t> sizes = {1, 2,  3,  4,  5,  7,  8,
                                                 9, 15, 16, 17, 31, 64, 101};
  return sizes;
}

std::vector<Height> random_heights(std::size_t n, Rng& rng) {
  std::vector<Height> v(n);
  for (Height& h : v) {
    // Include negatives: the scans run on budget-shifted values too.
    h = static_cast<Height>(rng.uniform(0, 2000)) - 1000;
  }
  return v;
}

/// Reference sliding-window maxima: the classical monotone deque, the
/// implementation the block two-scan replaced.
std::vector<Height> deque_window_maxima(const std::vector<Height>& load,
                                        Length width) {
  std::vector<Height> out;
  std::deque<std::size_t> dq;
  const auto w = static_cast<std::size_t>(width);
  for (std::size_t i = 0; i < load.size(); ++i) {
    while (!dq.empty() && load[dq.back()] <= load[i]) dq.pop_back();
    dq.push_back(i);
    if (i + 1 >= w) {
      if (dq.front() + w <= i) dq.pop_front();
      out.push_back(load[dq.front()]);
    }
  }
  return out;
}

TEST(WindowMaxima, MatchesMonotoneDequeReference) {
  Rng rng(20260807);
  WindowMaximaScratch scratch;
  for (const std::size_t n : adversarial_sizes()) {
    const std::vector<Height> load = random_heights(n, rng);
    for (Length width = 1; width <= static_cast<Length>(n); ++width) {
      const std::vector<Height> expected = deque_window_maxima(load, width);
      const std::span<const Height> got =
          sliding_window_maxima(load, width, scratch);
      ASSERT_EQ(got.size(), expected.size()) << "n=" << n << " w=" << width;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "n=" << n << " w=" << width << " x=" << i;
      }
    }
  }
}

TEST(StripOccupancy, ResetMatchesFreshInstance) {
  StripOccupancy used(64);
  used.add(3, 10, 7);
  used.raise_to(20, 8, 12);
  used.reset();
  const StripOccupancy fresh(64);
  EXPECT_EQ(used.peak(), fresh.peak());
  for (Length x = 0; x < 64; ++x) {
    ASSERT_EQ(used.load_at(x), fresh.load_at(x)) << "x=" << x;
  }
  // And the reset profile behaves like new for the searches.
  used.add(0, 4, 5);
  EXPECT_EQ(used.first_fit(4, 1, 3), std::optional<Length>(4));
  EXPECT_EQ(used.min_peak_position(4).start, 4);
}

TEST(ProfileBackends, ResetMatchesFreshInstance) {
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
    const auto used = make_profile_backend(kind, 48);
    used->add(1, 9, 4);
    used->raise_to(30, 10, 9);
    used->reset();
    const auto fresh = make_profile_backend(kind, 48);
    EXPECT_EQ(used->peak(), fresh->peak());
    for (Length x = 0; x < 48; ++x) {
      ASSERT_EQ(used->load_at(x), fresh->load_at(x))
          << to_string(kind) << " x=" << x;
    }
  }
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
