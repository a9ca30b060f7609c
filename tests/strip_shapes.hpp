#pragma once

// The strip-shape axis of the served-path suites.  Serving has no backend
// knob: every solve runs on the profile backend resolve_backend(kAuto, W, n)
// picks.  So a suite covers both backends by serving a narrow batch (every
// instance resolves dense) and the same batch widened until W > 16 n (every
// instance resolves sparse), and checks that each batch resolves that way.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/instance.hpp"
#include "core/profile.hpp"

namespace dsp::testing_shapes {

enum class StripShape { kNarrow, kWide };

/// `narrow` itself, or each instance with its strip and item widths scaled
/// by the smallest power of two that makes W > 16 n.  Expects every
/// returned instance to resolve dense (narrow) or sparse (wide).
[[nodiscard]] inline std::vector<Instance> shaped_batch(
    StripShape shape, const std::vector<Instance>& narrow) {
  const ProfileBackendKind expected = shape == StripShape::kNarrow
                                          ? ProfileBackendKind::kDense
                                          : ProfileBackendKind::kSparse;
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
    const Instance& shaped =
        batch.emplace_back(instance.strip_width() * factor, std::move(items));
    EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, shaped.strip_width(),
                              shaped.size()),
              expected)
        << shaped.summary();
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
