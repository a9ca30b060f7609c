#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "core/instance.hpp"

namespace dsp {

/// Which demand-profile implementation a placement algorithm runs on.
///
/// The paper's pseudo-polynomial setting (days divided into minutes, §1)
/// makes the dense O(W) passes of StripOccupancy the intended regime; the
/// sparse run-length backend wins on wide strips that few items cover
/// (O(n) runs vs. W columns), the workload of bench_occupancy_backends.
enum class ProfileBackendKind {
  kDense,   ///< StripOccupancy: O(W) sweeps per operation.
  kSparse,  ///< Run-length profile: O(runs) ops and searches, O(runs) memory.
  kAuto,    ///< Per instance: sparse iff the strip is wide relative to n.
};

[[nodiscard]] std::string_view to_string(ProfileBackendKind kind);

/// Resolves kAuto against the instance shape (identity on kDense/kSparse).
[[nodiscard]] ProfileBackendKind resolve_backend(ProfileBackendKind kind,
                                                 Length strip_width,
                                                 std::size_t expected_items);

/// Backend-neutral mutable demand profile: the placement contract every
/// constructive DSP algorithm in this repo needs.
///
///  * add / remove an item at a position,
///  * raise a window to a target height (skyline-style placement),
///  * max load over a window,
///  * leftmost position where an item fits under a peak budget,
///  * position minimizing the resulting peak (leftmost among minimizers).
///
/// Both implementations are observationally identical — the randomized
/// equivalence suite in tests/test_profile_backend.cpp cross-checks every
/// operation — so algorithms may be switched between them freely.
class ProfileBackend {
 public:
  virtual ~ProfileBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual Length strip_width() const = 0;
  [[nodiscard]] virtual Height peak() const = 0;
  [[nodiscard]] virtual Height load_at(Length x) const = 0;

  /// Restores the all-zero profile while retaining the internal buffers, so
  /// a backend can be recycled across solve54 bisection attempts instead of
  /// being reconstructed (and re-allocated) per probe.
  virtual void reset() = 0;

  /// The flat per-column load array when this backend keeps one (the dense
  /// backend), empty otherwise.  Lets bulk consumers (the shared
  /// sliding-window-maxima pass) run directly over the contiguous storage
  /// instead of issuing per-window virtual queries.
  [[nodiscard]] virtual std::span<const Height> dense_loads() const {
    return {};
  }

  /// Adds an item of the given width/height starting at `start`.
  virtual void add(Length start, Length width, Height height) = 0;
  /// Removes a previously added item (no bookkeeping: caller's contract).
  void remove(Length start, Length width, Height height) {
    add(start, width, -height);
  }
  /// Raises every column in [start, start+width) to at least `target`.
  virtual void raise_to(Length start, Length width, Height target) = 0;

  /// Max load over [start, start+width).
  [[nodiscard]] virtual Height window_max(Length start, Length width) const = 0;

  /// Smallest x' > x where the load differs from load_at(x), or W when the
  /// run extends to the strip's end — lets callers enumerate the profile's
  /// constant runs in O(runs) backend operations instead of O(W) probes.
  [[nodiscard]] virtual Length next_change(Length x) const = 0;

  /// Leftmost start x in [0, W-width] such that window_max(x, width) + height
  /// <= budget, or nullopt if none exists.
  [[nodiscard]] virtual std::optional<Length> first_fit(
      Length width, Height height, Height budget) const = 0;

  /// A start position minimizing the peak after adding an item of the given
  /// width (leftmost among minimizers), together with that resulting local
  /// max.  Never fails for width <= W.
  [[nodiscard]] virtual BestPosition min_peak_position(Length width) const = 0;
};

/// Builds a profile over `strip_width` columns.  `expected_items` feeds the
/// kAuto dense/sparse decision (0 = unknown, resolves dense).
[[nodiscard]] std::unique_ptr<ProfileBackend> make_profile_backend(
    ProfileBackendKind kind, Length strip_width,
    std::size_t expected_items = 0);

}  // namespace dsp
