#include "sp/bottom_left.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/profile.hpp"

namespace dsp::sp {

SpPacking bottom_left(const Instance& instance) {
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
  // The profile holds the skyline: raise_to lifts the columns under each
  // placed item to its top.  min_peak_position returns the lowest, then
  // leftmost, roof over the item's span, always at a run start — exactly
  // the bottom-left candidate set of skyline breakpoints.
  Profile skyline(instance.strip_width());
  for (const std::size_t i : order) {
    const Item& it = instance.item(i);
    const BestPosition best = skyline.min_peak_position(it.width);
    packing.position[i] = SpPlacement{best.start, best.window_max};
    skyline.raise_to(best.start, it.width, best.window_max + it.height);
  }
  return packing;
}

}  // namespace dsp::sp
