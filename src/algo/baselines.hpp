#pragma once

#include <optional>

#include "core/packing.hpp"

namespace dsp::algo {

/// DSP baselines from the paper's related-work line (Tang et al. [29],
/// Ranjan et al. [22, 23], Yaw et al. [31]) plus SP-as-DSP adapters.
/// Experiment E12 measures all of them against exact optima / lower bounds.

/// Item orderings used by the greedy placers.
enum class ItemOrder {
  kInput,            ///< as given
  kDecreasingHeight, ///< tallest first (the usual smoothing order)
  kDecreasingArea,   ///< largest area first
  kDecreasingWidth,  ///< widest first
};

/// A packing next to its peak, read off the Profile it was placed on (equal
/// to peak_height(instance, packing), without scoring it a second time).
struct Scored {
  Packing packing;
  Height peak = 0;

  friend bool operator==(const Scored&, const Scored&) = default;
};

/// Greedy peak smoothing: items in the given order, each placed at the
/// (leftmost) position minimizing the resulting local peak.  This is the
/// representative of the smoothing heuristics of Tang et al. [29].
/// Every profile-driven baseline places on its own run-length Profile.
[[nodiscard]] Scored greedy_lowest_peak(
    const Instance& instance, ItemOrder order = ItemOrder::kDecreasingHeight);

/// First-fit under a peak budget: items by decreasing height, each at the
/// leftmost position keeping load + h <= budget.  Returns nullopt if some
/// item does not fit — the inner loop of Ranjan et al.'s first-fit [23].
[[nodiscard]] std::optional<Scored> first_fit_with_budget(
    const Instance& instance, Height budget);

/// Ranjan-style first fit: binary search for the smallest feasible budget of
/// first_fit_with_budget between `lower_bound`, which must be
/// combined_lower_bound(instance), and the peak of `greedy`, which must be
/// greedy_lowest_peak(instance, kDecreasingHeight); returns the packing for
/// that budget, or `greedy` when no smaller budget fits.
[[nodiscard]] Scored first_fit_search(const Instance& instance,
                                      Height lower_bound,
                                      const Scored& greedy);

/// Yaw et al. [31] consider the equal-width special case.  With k = floor(W/w)
/// columns, items sorted by decreasing height are assigned LPT-style to the
/// currently lowest column.  Throws InvalidInput if widths differ.
[[nodiscard]] Packing equal_width_folding(const Instance& instance);

/// NFDH / FFDH / Sleator / bottom-left run as classical SP and reinterpreted
/// as DSP packings (start positions only).
[[nodiscard]] Packing nfdh_dsp(const Instance& instance);
[[nodiscard]] Packing ffdh_dsp(const Instance& instance);
[[nodiscard]] Packing sleator_dsp(const Instance& instance);
[[nodiscard]] Packing bottom_left_dsp(const Instance& instance);

}  // namespace dsp::algo
