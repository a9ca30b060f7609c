#include "core/occupancy.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dsp {

StripOccupancy::StripOccupancy(Length strip_width) {
  DSP_REQUIRE(strip_width >= 1, "strip width must be >= 1");
  load_.assign(static_cast<std::size_t>(strip_width), 0);
}

void StripOccupancy::reset() {
  std::fill(load_.begin(), load_.end(), Height{0});
}

Height StripOccupancy::load_at(Length x) const {
  DSP_REQUIRE(x >= 0 && x < strip_width(), "load_at outside the strip");
  return load_[static_cast<std::size_t>(x)];
}

Height StripOccupancy::peak() const {
  // The historical contract: the peak of an all-negative profile is 0.
  return std::max<Height>(0, *std::max_element(load_.begin(), load_.end()));
}

void StripOccupancy::add(Length start, Length width, Height height) {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "add outside strip: start=" << start << " width=" << width);
  for (Length x = start; x < start + width; ++x) {
    load_[static_cast<std::size_t>(x)] += height;
  }
}

void StripOccupancy::raise_to(Length start, Length width, Height target) {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "raise_to outside strip: start=" << start << " width=" << width);
  for (Length x = start; x < start + width; ++x) {
    Height& load = load_[static_cast<std::size_t>(x)];
    load = std::max(load, target);
  }
}

Height StripOccupancy::window_max(Length start, Length width) const {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= strip_width(),
              "window outside strip");
  const auto first = load_.begin() + start;
  return std::max<Height>(0, *std::max_element(first, first + width));
}

Length StripOccupancy::next_change(Length x) const {
  DSP_REQUIRE(x >= 0 && x < strip_width(), "next_change outside the strip");
  const Height v = load_[static_cast<std::size_t>(x)];
  const auto next = std::find_if(load_.begin() + x + 1, load_.end(),
                                 [v](Height load) { return load != v; });
  return static_cast<Length>(next - load_.begin());
}

std::span<const Height> StripOccupancy::window_maxima(Length width) const {
  return sliding_window_maxima(load_, width, scratch_);
}

std::optional<Length> StripOccupancy::first_fit(Length width, Height height,
                                                Height budget) const {
  DSP_REQUIRE(width >= 1 && width <= strip_width(), "item wider than strip");
  const std::span<const Height> maxima = window_maxima(width);
  // maxima[x] + height <= budget, searched as maxima[x] <= budget - height
  // (exact for the integer heights of this problem).
  const Height threshold = budget - height;
  const auto fit = std::find_if(maxima.begin(), maxima.end(),
                                [threshold](Height m) { return m <= threshold; });
  if (fit == maxima.end()) return std::nullopt;
  return static_cast<Length>(fit - maxima.begin());
}

BestPosition StripOccupancy::min_peak_position(Length width) const {
  DSP_REQUIRE(width >= 1 && width <= strip_width(), "item wider than strip");
  const std::span<const Height> maxima = window_maxima(width);
  // min_element returns the leftmost minimizer.
  const auto best = std::min_element(maxima.begin(), maxima.end());
  return {static_cast<Length>(best - maxima.begin()), *best};
}

}  // namespace dsp
