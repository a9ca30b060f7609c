#pragma once

// The strip-shape axis of the served-path suites.  Serving has no profile
// knob: every solve places on the one run-length Profile.  The axis is
// input diversity: a suite serves a narrow batch (items cover the strip
// densely, W <= 16 n for the golden sizes) and the same batch widened
// until W > 16 n (few items on a wide strip, long flat runs).  Profile is
// checked against a column-by-column reference in
// tests/test_profile_backend.cpp, not here.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/instance.hpp"

namespace dsp::testing_shapes {

enum class StripShape { kNarrow, kWide };

/// `narrow` itself, or each instance with its strip and item widths scaled
/// by the smallest power of two that makes W > 16 n.
[[nodiscard]] inline std::vector<Instance> shaped_batch(
    StripShape shape, const std::vector<Instance>& narrow) {
  std::vector<Instance> batch;
  for (const Instance& instance : narrow) {
    Length factor = 1;
    while (shape == StripShape::kWide &&
           instance.strip_width() * factor <=
               16 * static_cast<Length>(instance.size())) {
      factor *= 2;
    }
    std::vector<Item> items(instance.items().begin(), instance.items().end());
    for (Item& item : items) item.width *= factor;
    batch.emplace_back(instance.strip_width() * factor, std::move(items));
  }
  return batch;
}

/// The (worker threads, strip shape) grid of the parameterized suites, and
/// its case names ("t2_wide").
using ThreadsAndShape = std::tuple<std::size_t, StripShape>;

[[nodiscard]] inline auto threads_and_shapes() {
  return ::testing::Combine(
      ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{8}),
      ::testing::Values(StripShape::kNarrow, StripShape::kWide));
}

[[nodiscard]] inline std::string threads_and_shape_name(
    const ::testing::TestParamInfo<ThreadsAndShape>& info) {
  const auto& [threads, shape] = info.param;
  return "t" + std::to_string(threads) +
         (shape == StripShape::kNarrow ? "_narrow" : "_wide");
}

}  // namespace dsp::testing_shapes
