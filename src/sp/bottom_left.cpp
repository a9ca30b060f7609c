#include "sp/bottom_left.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "core/profile.hpp"
#include "core/window_maxima.hpp"

namespace dsp::sp {

namespace {

/// Skyline over a demand-profile backend: the profile holds the piecewise-
/// constant roof heights, this struct additionally tracks the breakpoint
/// positions (xs.front()==0, sentinel xs.back()==W) that are the candidate
/// placements of the bottom-left rule.  Breakpoints are kept exactly at the
/// roof's discontinuities, matching the coalesced segment representation.
struct Skyline {
  std::vector<Length> xs;
  std::unique_ptr<ProfileBackend> profile;

  Skyline(Length width, ProfileBackendKind backend, std::size_t items)
      : xs{0, width}, profile(make_profile_backend(backend, width, items)) {}

  /// Max height over [x, x+w).
  [[nodiscard]] Height roof(Length x, Length w) const {
    return profile->window_max(x, w);
  }

  /// Raise [x, x+w) to height y (y must be >= current roof there).
  void place(Length x, Length w, Height y) {
    profile->raise_to(x, w, y);
    // Breakpoints inside (x, x+w) are flattened away; x and x+w remain
    // breakpoints only where the roof is discontinuous.
    const auto lo = std::upper_bound(xs.begin(), xs.end(), x);
    const auto hi = std::lower_bound(lo, xs.end(), x + w);
    xs.erase(lo, hi);
    insert_sorted(x);
    insert_sorted(x + w);
    coalesce_at(x);
    coalesce_at(x + w);
  }

 private:
  void insert_sorted(Length v) {
    const auto it = std::lower_bound(xs.begin(), xs.end(), v);
    if (it == xs.end() || *it != v) xs.insert(it, v);
  }

  /// Drops the breakpoint at `x` if the roof is continuous across it.
  void coalesce_at(Length x) {
    if (x <= 0 || x >= profile->strip_width()) return;
    if (profile->load_at(x - 1) != profile->load_at(x)) return;
    const auto it = std::lower_bound(xs.begin(), xs.end(), x);
    if (it != xs.end() && *it == x) xs.erase(it);
  }
};

}  // namespace

SpPacking bottom_left(const Instance& instance) {
  return bottom_left(instance, ProfileBackendKind::kAuto);
}

SpPacking bottom_left(const Instance& instance, ProfileBackendKind backend) {
  const Length w = instance.strip_width();
  std::vector<std::size_t> order(instance.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Item& ia = instance.item(a);
    const Item& ib = instance.item(b);
    if (ia.height != ib.height) return ia.height > ib.height;
    if (ia.width != ib.width) return ia.width > ib.width;
    return a < b;
  });

  SpPacking packing;
  packing.position.resize(instance.size());
  Skyline skyline(w, backend, instance.size());
  // On the dense backend, evaluate all breakpoint candidates against one
  // shared sliding-window-maxima pass (core/window_maxima.hpp) instead of a
  // per-breakpoint O(width) roof query; the chosen position is identical
  // (same candidates, same leftmost-strict-min rule).
  const std::span<const Height> loads = skyline.profile->dense_loads();
  WindowMaximaScratch scratch;
  for (const std::size_t i : order) {
    const Item& it = instance.item(i);
    // Candidate x positions: skyline breakpoints (left-justified placements).
    Length best_x = 0;
    Height best_y;
    if (!loads.empty()) {
      const std::span<const Height> maxima =
          sliding_window_maxima(loads, it.width, scratch);
      best_y = maxima[0];
      for (std::size_t s = 1; s + 1 < skyline.xs.size(); ++s) {
        const Length x = skyline.xs[s];
        if (x + it.width > w) break;
        const Height y = maxima[static_cast<std::size_t>(x)];
        if (y < best_y) {
          best_y = y;
          best_x = x;
        }
      }
    } else {
      best_y = skyline.roof(0, it.width);
      for (std::size_t s = 1; s + 1 < skyline.xs.size(); ++s) {
        const Length x = skyline.xs[s];
        if (x + it.width > w) break;
        const Height y = skyline.roof(x, it.width);
        if (y < best_y) {
          best_y = y;
          best_x = x;
        }
      }
    }
    packing.position[i] = SpPlacement{best_x, best_y};
    skyline.place(best_x, it.width, best_y + it.height);
  }
  return packing;
}

}  // namespace dsp::sp
