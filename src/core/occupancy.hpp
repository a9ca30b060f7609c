#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/profile.hpp"
#include "core/window_maxima.hpp"

namespace dsp {

/// The dense ProfileBackend (kDense): one flat per-column load array, so
/// add / raise_to cost O(item width) and the searches one O(W)
/// sliding-window-maximum pass (core/window_maxima.hpp).
///
/// kAuto never picks it: n placements leave at most 2n + 1 runs, so the
/// run-length profile is the cheaper one on every strip the request path
/// serves.  It is built only where a caller names kDense.
///
/// Beyond the interface it offers window_max and the raw loads(), which the
/// exact branch-and-bound (exact/dsp_exact.cpp) and the E15 kernels read
/// directly.  No query allocates after the first — the window-maxima scratch
/// is a member, which also means a StripOccupancy must not be shared across
/// threads without external synchronization (its mutating API already
/// imposed that contract).
class StripOccupancy final : public ProfileBackend {
 public:
  explicit StripOccupancy(Length strip_width);

  [[nodiscard]] Length strip_width() const override {
    return static_cast<Length>(load_.size());
  }
  [[nodiscard]] Height peak() const override;
  [[nodiscard]] Height load_at(Length x) const override;
  [[nodiscard]] std::span<const Height> loads() const { return load_; }

  void reset() override;
  void add(Length start, Length width, Height height) override;
  void raise_to(Length start, Length width, Height target) override;

  /// Max load over [start, start+width), clamped at 0 like peak().
  [[nodiscard]] Height window_max(Length start, Length width) const;

  [[nodiscard]] Length next_change(Length x) const override;
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const override;
  [[nodiscard]] BestPosition min_peak_position(Length width) const override;

 private:
  /// Sliding-window maxima M[x] = max load over [x, x+width) for all valid
  /// x, as a span into the reusable scratch (core/window_maxima.hpp).
  [[nodiscard]] std::span<const Height> window_maxima(Length width) const;

  std::vector<Height> load_;
  /// Query scratch; mutable so the const searches stay allocation-free.
  mutable WindowMaximaScratch scratch_;
};

}  // namespace dsp
