#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/instance.hpp"

namespace dsp {

/// The mutable demand profile every constructive DSP placement in this repo
/// runs on (greedy, first fit, bottom-left and the (5/4 + eps) attempts):
///
///  * add / remove an item at a position,
///  * raise a window to a target height (skyline-style placement),
///  * leftmost position where an item fits under a peak budget,
///  * position minimizing the resulting peak (leftmost among minimizers).
///
/// The load is kept run-length encoded: heights_[i] on
/// [starts_[i], starts_[i+1]) (the last run ends at W), starts_[0] == 0 and
/// adjacent runs always differ in height.  n placements leave at most
/// 2n + 1 runs, so every operation is O(runs) whatever W is, and the state
/// never grows with the strip — in the paper's pseudo-polynomial setting
/// (days divided into minutes, §1) the runs are never more than the W
/// columns either.  tests/test_profile_backend.cpp checks every operation
/// against a column-by-column reference.
class Profile {
 public:
  explicit Profile(Length strip_width);

  [[nodiscard]] Length strip_width() const { return width_; }
  /// Highest load, clamped at 0 (the peak of an all-negative profile is 0).
  [[nodiscard]] Height peak() const;
  [[nodiscard]] Height load_at(Length x) const;

  /// Adds an item of the given width/height starting at `start`.
  void add(Length start, Length width, Height height);
  /// Removes a previously added item (no bookkeeping: caller's contract).
  void remove(Length start, Length width, Height height) {
    add(start, width, -height);
  }
  /// Raises every column in [start, start+width) to at least `target`.
  void raise_to(Length start, Length width, Height target);

  /// Smallest x' > x where the load differs from load_at(x), or W when the
  /// run extends to the strip's end — enumerates the constant runs.
  [[nodiscard]] Length next_change(Length x) const;

  /// Leftmost start x in [0, W-width] such that the max load over
  /// [x, x+width) plus `height` is <= budget, or nullopt if none exists.
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const;

  /// A start position minimizing the peak after adding an item of the given
  /// width (leftmost among minimizers), together with that resulting local
  /// max.  Never fails for width <= W.  The leftmost minimizer is always a
  /// run start (0 or an x with load_at(x-1) != load_at(x)): sliding a start
  /// right inside a constant run never lowers the window max.  The scan
  /// goes left to right and skips every start that cannot strictly beat the
  /// best so far (its window covers a run at least that high), so it
  /// touches each run at most twice: O(runs) in the worst case.
  [[nodiscard]] BestPosition min_peak_position(Length width) const;

 private:
  /// Index of the run holding column x.
  [[nodiscard]] std::size_t run_of(Length x) const;
  [[nodiscard]] Length run_end(std::size_t i) const {
    return i + 1 < starts_.size() ? starts_[i + 1] : width_;
  }
  /// Makes x a run start (x < W) and returns its run's index; W maps to the
  /// run count.
  std::size_t split(Length x);
  /// Applies `f` to the load over [start, start+width).
  template <typename F>
  void update(Length start, Length width, F f);

  Length width_;
  std::vector<Length> starts_;
  std::vector<Height> heights_;
};

// --- e2ebench shim ----------------------------------------------------------
//
// The names below are ignored by the library: no code under src/ passes or
// reads a ProfileBackendKind.  They are kept only so e2ebench/src/layers.cpp
// compiles unchanged, and go with e2ebench v2.

/// Ignored; kept only for e2ebench/src/layers.cpp until e2ebench v2.
enum class ProfileBackendKind { kDense, kSparse, kAuto };

/// "dense", "sparse" or "auto".  Kept only for e2ebench/src/layers.cpp
/// until e2ebench v2.
[[nodiscard]] std::string_view to_string(ProfileBackendKind kind);

/// kSparse for every argument: every strip runs on Profile.  Kept only for
/// e2ebench/src/layers.cpp until e2ebench v2.
[[nodiscard]] ProfileBackendKind resolve_backend(ProfileBackendKind kind,
                                                 Length strip_width,
                                                 std::size_t expected_items);

}  // namespace dsp
