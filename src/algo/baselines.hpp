#pragma once

#include <optional>

#include "core/packing.hpp"
#include "core/profile.hpp"

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

/// Greedy peak smoothing: items in the given order, each placed at the
/// (leftmost) position minimizing the resulting local peak.  This is the
/// representative of the smoothing heuristics of Tang et al. [29].
/// All profile-driven baselines take the backend to run on (dense O(W)
/// sweeps or the sparse run-length profile); both produce identical packings.
/// The default kAuto resolves it to the run-length profile.
[[nodiscard]] Packing greedy_lowest_peak(
    const Instance& instance, ItemOrder order = ItemOrder::kDecreasingHeight,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

/// First-fit under a peak budget: items by decreasing height, each at the
/// leftmost position keeping load + h <= budget.  Returns nullopt if some
/// item does not fit — the inner loop of Ranjan et al.'s first-fit [23].
[[nodiscard]] std::optional<Packing> first_fit_with_budget(
    const Instance& instance, Height budget,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

/// Ranjan-style first fit: binary search for the smallest feasible budget of
/// first_fit_with_budget between the combined lower bound and the greedy
/// upper bound; returns the packing for that budget.
[[nodiscard]] Packing first_fit_search(
    const Instance& instance,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

/// The same search from bounds the caller already holds: `lower_bound` must
/// be combined_lower_bound(instance) and `greedy` the packing of
/// greedy_lowest_peak(instance, kDecreasingHeight) (on any backend: they
/// agree).  Returns exactly what the overload above returns.
[[nodiscard]] Packing first_fit_search(
    const Instance& instance, Height lower_bound, const Packing& greedy,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

/// Yaw et al. [31] consider the equal-width special case.  With k = floor(W/w)
/// columns, items sorted by decreasing height are assigned LPT-style to the
/// currently lowest column.  Throws InvalidInput if widths differ.
[[nodiscard]] Packing equal_width_folding(const Instance& instance);

/// NFDH / FFDH / Sleator / bottom-left run as classical SP and reinterpreted
/// as DSP packings (start positions only).
[[nodiscard]] Packing nfdh_dsp(const Instance& instance);
[[nodiscard]] Packing ffdh_dsp(const Instance& instance);
[[nodiscard]] Packing sleator_dsp(const Instance& instance);
[[nodiscard]] Packing bottom_left_dsp(
    const Instance& instance,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

}  // namespace dsp::algo
