#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/packing.hpp"

namespace dsp {

/// One vertical slice of an item: over the x-range [x_begin, x_end) the item
/// occupies heights [y, y + h(item)).  Slicing places vertical cuts only —
/// an item is never divided horizontally (paper §1).
struct Slice {
  Length x_begin = 0;
  Length x_end = 0;
  Height y = 0;

  [[nodiscard]] bool operator==(const Slice&) const = default;
};

/// An explicit two-dimensional realization of a DSP solution (paper Fig. 1):
/// each item is covered by slices that are contiguous in x and may sit at
/// different heights.  This is the object the transformation algorithms
/// (Thm. 1, Figs. 2-3) and the restructuring lemmas (Lemmas 6-9) operate on.
class SlicedPacking {
 public:
  /// Takes per-item starts and per-item slices (sorted by x, covering
  /// [start, start+width) exactly once).  Structure is validated lazily via
  /// validate(); construction itself only stores.
  SlicedPacking(std::vector<Length> starts, std::vector<std::vector<Slice>> slices);

  /// Canonical slicing of a demand packing: a left-to-right sweep stacks the
  /// active items bottom-up in arrival order, starting new slices whenever an
  /// item's height assignment changes.  The result is feasible and its height
  /// equals the packing's peak — the constructive direction of Fig. 1.
  static SlicedPacking canonical(const Instance& instance, const Packing& packing);

  [[nodiscard]] std::size_t size() const { return starts_.size(); }
  [[nodiscard]] const std::vector<Length>& starts() const { return starts_; }
  [[nodiscard]] const std::vector<Slice>& slices_of(std::size_t item) const {
    return slices_.at(item);
  }

  /// Highest occupied coordinate: max over slices of y + h(item).
  [[nodiscard]] Height height(const Instance& instance) const;

  /// Full structural validation: per-item slice cover of [start, start+w),
  /// non-negative heights, and pairwise non-overlap at every column.
  /// Returns an explanation of the first violation, or nullopt if feasible.
  [[nodiscard]] std::optional<std::string> validate(const Instance& instance) const;

 private:
  std::vector<Length> starts_;
  std::vector<std::vector<Slice>> slices_;
};

}  // namespace dsp
