#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "core/packing.hpp"
#include "core/profile.hpp"

namespace dsp::algo {

/// A named DSP algorithm, for the ratio experiments (E12) and for witness
/// generation inside the (5/4+eps) pipeline (DESIGN.md substitution 4).
struct NamedAlgorithm {
  std::string name;
  /// The member's one entry: its packing next to its peak.  It gets
  /// combined_lower_bound(instance) and the results of the members before
  /// it, in portfolio order.  first-fit starts its budget search from
  /// greedy-h's result when handed one and runs greedy-h itself when handed
  /// none; every other member ignores `earlier`.  Members that place on a
  /// Profile report its peak; the others are scored by peak_height.
  std::function<Scored(const Instance&, Height lower_bound,
                       std::span<const Scored> earlier)>
      run_scored;

  /// The member on its own: run_scored from the instance's lower bound
  /// with no earlier results.
  [[nodiscard]] Packing run(const Instance& instance) const;
};

/// All general-purpose baselines (the equal-width folding is excluded: it
/// only accepts uniform widths and is benchmarked separately).  greedy,
/// first-fit and bottom-left place on the run-length Profile; nfdh, ffdh
/// and sleator keep their shelf bookkeeping.  The ProfileBackendKind
/// parameter is ignored — no library code passes it; it is kept only for
/// e2ebench/src/layers.cpp until e2ebench v2.
[[nodiscard]] std::vector<NamedAlgorithm> baseline_portfolio(
    ProfileBackendKind = ProfileBackendKind::kAuto);

/// Runs the portfolio in order and returns the packing with the lowest peak
/// (the earliest member on ties).  Stops once the best peak reaches
/// combined_lower_bound: no feasible packing peaks lower, and only a
/// strictly lower peak replaces the best, so the skipped members cannot
/// change the answer.  If `winner` is non-null it receives the winning
/// algorithm's name.  The ProfileBackendKind parameter is ignored — no
/// library code passes it; it is kept only for e2ebench/src/layers.cpp
/// until e2ebench v2.
[[nodiscard]] Packing best_of_portfolio(
    const Instance& instance, std::string* winner = nullptr,
    ProfileBackendKind = ProfileBackendKind::kAuto);

/// The same run from the lower bound the caller already holds
/// (`lower_bound` must be combined_lower_bound(instance)); returns the
/// winning packing with its peak, as the winning member reported it.
[[nodiscard]] Scored best_of_portfolio(const Instance& instance,
                                       Height lower_bound,
                                       std::string* winner = nullptr);

}  // namespace dsp::algo
