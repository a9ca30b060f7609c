#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/window_maxima.hpp"

namespace dsp {

/// Mutable demand profile supporting the placement queries every constructive
/// DSP algorithm needs:
///
///  * add / remove an item at a position (O(width of item)),
///  * max load over a window (O(window)),
///  * leftmost position where an item fits under a peak budget
///    (one O(W) sliding-window-maximum pass),
///  * position minimizing the resulting peak (same pass, min of window max).
///
/// W is pseudo-polynomially small in this problem family (days divided into
/// minutes — paper §1), so dense O(W) passes are the intended regime.
///
/// Layout: one flat load array plus reusable sliding-window scratch.  Every
/// scan is a plain loop or <algorithm> call over it, and no query allocates
/// after the first — the scratch is a member, which also means a
/// StripOccupancy must not be shared across threads without external
/// synchronization (its mutating API already imposed that contract).
class StripOccupancy {
 public:
  explicit StripOccupancy(Length strip_width);

  [[nodiscard]] Length strip_width() const { return static_cast<Length>(load_.size()); }
  [[nodiscard]] Height peak() const;
  /// Load of column x; InvalidInput outside [0, W), like the sparse backend.
  [[nodiscard]] Height load_at(Length x) const;
  [[nodiscard]] std::span<const Height> loads() const { return load_; }

  /// Restores the all-zero profile, retaining the buffers (the reuse path of
  /// repeated solve54 bisection attempts).
  void reset();

  /// Adds an item of the given width/height starting at `start`.
  void add(Length start, Length width, Height height);
  /// Removes a previously added item (no bookkeeping: caller's contract).
  void remove(Length start, Length width, Height height);

  /// Raises every column in [start, start+width) to at least `target`
  /// (skyline-style placement: lift the covered region to the item's top).
  void raise_to(Length start, Length width, Height target);

  /// Max load over [start, start+width).
  [[nodiscard]] Height window_max(Length start, Length width) const;

  /// Smallest x' > x where the load differs from load_at(x), or W when the
  /// run extends to the strip's end.
  [[nodiscard]] Length next_change(Length x) const;

  /// Leftmost start x in [0, W-width] such that window_max(x, width) + height
  /// <= budget, or nullopt if none exists.
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const;

  /// A start position minimizing the peak after adding an item of the given
  /// width (leftmost among minimizers), together with that resulting local
  /// max.  Never fails for width <= W.
  [[nodiscard]] BestPosition min_peak_position(Length width) const;

 private:
  /// Sliding-window maxima M[x] = max load over [x, x+width) for all valid
  /// x, as a span into the reusable scratch (core/window_maxima.hpp).
  [[nodiscard]] std::span<const Height> window_maxima(Length width) const;

  std::vector<Height> load_;
  /// Query scratch; mutable so the const searches stay allocation-free.
  mutable WindowMaximaScratch scratch_;
};

}  // namespace dsp
