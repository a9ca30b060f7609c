#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "core/instance.hpp"

namespace dsp {

/// Which demand-profile implementation a placement algorithm runs on.
///
/// n placements leave at most 2n + 1 constant runs, so the run-length
/// profile is never longer than the W columns of StripOccupancy in the
/// paper's pseudo-polynomial setting either (days divided into minutes,
/// §1): kAuto serves every strip on it.  The dense backend stays for
/// callers that ask for it by name (the exact branch-and-bound, the E15
/// kernels and the equivalence suites).
enum class ProfileBackendKind {
  kDense,   ///< StripOccupancy: O(W) sweeps per operation.
  kSparse,  ///< Run-length profile: O(runs) ops and searches, O(runs) memory.
  kAuto,    ///< The request-path default: resolves to kSparse.
};

[[nodiscard]] std::string_view to_string(ProfileBackendKind kind);

/// Resolves kAuto to kSparse for every strip width and item count (identity
/// on kDense/kSparse), so no request-path profile allocates anything
/// W-sized.  The shape arguments are kept for the callers that report
/// which backend an instance runs on.
[[nodiscard]] ProfileBackendKind resolve_backend(ProfileBackendKind kind,
                                                 Length strip_width,
                                                 std::size_t expected_items);

/// Backend-neutral mutable demand profile: the placement contract every
/// constructive DSP algorithm in this repo needs.
///
///  * add / remove an item at a position,
///  * raise a window to a target height (skyline-style placement),
///  * leftmost position where an item fits under a peak budget,
///  * position minimizing the resulting peak (leftmost among minimizers).
///
/// Both implementations — StripOccupancy (core/occupancy.hpp) and the
/// run-length profile — are observationally identical: the randomized
/// equivalence suite in tests/test_profile_backend.cpp cross-checks every
/// operation, so algorithms may be switched between them freely.
class ProfileBackend {
 public:
  virtual ~ProfileBackend() = default;

  [[nodiscard]] virtual Length strip_width() const = 0;
  [[nodiscard]] virtual Height peak() const = 0;
  [[nodiscard]] virtual Height load_at(Length x) const = 0;

  /// Restores the all-zero profile while retaining the internal buffers, so
  /// a backend can be recycled across solve54 bisection attempts instead of
  /// being reconstructed (and re-allocated) per probe.
  virtual void reset() = 0;

  /// Adds an item of the given width/height starting at `start`.
  virtual void add(Length start, Length width, Height height) = 0;
  /// Removes a previously added item (no bookkeeping: caller's contract).
  void remove(Length start, Length width, Height height) {
    add(start, width, -height);
  }
  /// Raises every column in [start, start+width) to at least `target`.
  virtual void raise_to(Length start, Length width, Height target) = 0;

  /// Smallest x' > x where the load differs from load_at(x), or W when the
  /// run extends to the strip's end — lets callers enumerate the profile's
  /// constant runs in O(runs) backend operations instead of O(W) probes.
  [[nodiscard]] virtual Length next_change(Length x) const = 0;

  /// Leftmost start x in [0, W-width] such that the max load over
  /// [x, x+width) plus `height` is <= budget, or nullopt if none exists.
  [[nodiscard]] virtual std::optional<Length> first_fit(
      Length width, Height height, Height budget) const = 0;

  /// A start position minimizing the peak after adding an item of the given
  /// width (leftmost among minimizers), together with that resulting local
  /// max.  Never fails for width <= W.  The leftmost minimizer is always a
  /// run start (0 or an x with load_at(x-1) != load_at(x)): sliding a start
  /// right inside a constant run never lowers the window max.
  [[nodiscard]] virtual BestPosition min_peak_position(Length width) const = 0;
};

/// Builds a profile over `strip_width` columns; `expected_items` is the
/// number of items the caller will place (resolve_backend's shape).
[[nodiscard]] std::unique_ptr<ProfileBackend> make_profile_backend(
    ProfileBackendKind kind, Length strip_width, std::size_t expected_items);

}  // namespace dsp
