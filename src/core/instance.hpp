#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsp {

/// Horizontal quantities (widths, x-coordinates, strip width).  The paper's
/// pseudo-polynomial setting iterates over the strip width, so these are
/// plain integers.
using Length = std::int64_t;
/// Vertical quantities (heights, loads, peak).
using Height = std::int64_t;

/// A demand item: a rectangle of given width (duration) and height (power
/// demand).  Items are identified by their index in the owning Instance.
struct Item {
  Length width = 0;
  Height height = 0;

  [[nodiscard]] std::int64_t area() const {
    return static_cast<std::int64_t>(width) * height;
  }
  [[nodiscard]] bool operator==(const Item&) const = default;
};

/// Result of Profile::min_peak_position: the leftmost start
/// minimizing the max load under an item of a given width, together with
/// that load.  Bottom-left reads it as the item's (x, y) on the skyline.
struct BestPosition {
  Length start;
  Height window_max;  ///< max load under the item before adding it
};

/// A Demand Strip Packing instance: a strip of width W and n items.
///
/// Invariants (checked on construction): W >= 1, every item has
/// 1 <= width <= W and height >= 1.
class Instance {
 public:
  Instance(Length strip_width, std::vector<Item> items);

  [[nodiscard]] Length strip_width() const { return strip_width_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const Item& item(std::size_t index) const {
    return items_[index];
  }
  [[nodiscard]] std::span<const Item> items() const { return items_; }

  /// Sum of item areas.
  [[nodiscard]] std::int64_t total_area() const;
  /// Tallest item height (0 for empty instances).
  [[nodiscard]] Height max_height() const;
  /// Widest item width (0 for empty instances).
  [[nodiscard]] Length max_width() const;

  /// Human-readable one-line summary ("n=12 W=40 area=310 hmax=9").
  [[nodiscard]] std::string summary() const;

 private:
  Length strip_width_;
  std::vector<Item> items_;
};

}  // namespace dsp
