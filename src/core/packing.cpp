#include "core/packing.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/profile.hpp"
#include "util/check.hpp"

namespace dsp {

LoadProfile::LoadProfile(const Instance& instance, const Packing& packing) {
  if (auto err = feasibility_error(instance, packing)) {
    DSP_REQUIRE(false, "LoadProfile on infeasible packing: " << *err);
  }
  const auto width = static_cast<std::size_t>(instance.strip_width());
  // Difference-array construction: O(n + W).
  std::vector<Height> diff(width + 1, 0);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance.item(i);
    const Length s = packing.start[i];
    diff[static_cast<std::size_t>(s)] += it.height;
    diff[static_cast<std::size_t>(s + it.width)] -= it.height;
  }
  load_.resize(width, 0);
  Height running = 0;
  for (std::size_t x = 0; x < width; ++x) {
    running += diff[x];
    load_[x] = running;
    peak_ = std::max(peak_, running);
  }
}

std::optional<std::string> feasibility_error(const Instance& instance,
                                             const Packing& packing) {
  if (packing.start.size() != instance.size()) {
    std::ostringstream oss;
    oss << "packing has " << packing.start.size() << " starts for "
        << instance.size() << " items";
    return oss.str();
  }
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Length s = packing.start[i];
    const Item& it = instance.item(i);
    if (s < 0 || s + it.width > instance.strip_width()) {
      std::ostringstream oss;
      oss << "item " << i << " at start " << s << " with width " << it.width
          << " leaves the strip of width " << instance.strip_width();
      return oss.str();
    }
  }
  return std::nullopt;
}

void validate_packing(const Instance& instance, const Packing& packing) {
  if (auto err = feasibility_error(instance, packing)) {
    DSP_REQUIRE(false, "invalid packing: " << *err);
  }
}

Height peak_height(const Instance& instance, const Packing& packing) {
  if (resolve_backend(ProfileBackendKind::kAuto, instance.strip_width(),
                      instance.size()) == ProfileBackendKind::kDense) {
    return LoadProfile(instance, packing).peak();
  }
  // Wide, lightly covered strip: sweep the 2n item edges in O(n log n)
  // instead of materialising W columns.  At one x, ends (-h) sort before
  // starts (+h), matching the half-open [start, start + width) coverage.
  validate_packing(instance, packing);
  std::vector<std::pair<Length, Height>> edges;
  edges.reserve(2 * instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance.item(i);
    edges.emplace_back(packing.start[i], it.height);
    edges.emplace_back(packing.start[i] + it.width, -it.height);
  }
  std::sort(edges.begin(), edges.end());
  Height running = 0;
  Height peak = 0;
  for (const auto& [x, delta] : edges) {
    running += delta;
    peak = std::max(peak, running);
  }
  return peak;
}

}  // namespace dsp
