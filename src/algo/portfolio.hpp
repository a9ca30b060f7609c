#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/packing.hpp"
#include "core/profile.hpp"

namespace dsp::algo {

/// A named DSP algorithm, for the ratio experiments (E12) and for witness
/// generation inside the (5/4+eps) pipeline (DESIGN.md substitution 4).
struct NamedAlgorithm {
  std::string name;
  std::function<Packing(const Instance&)> run;
  /// Optional shortcut for best_of_portfolio: returns exactly what `run`
  /// returns, given combined_lower_bound(instance) and the packing of the
  /// earlier member `seed_member`.  Standalone callers use `run`.
  std::function<Packing(const Instance&, Height lower_bound,
                        const Packing& seed)>
      run_seeded = nullptr;
  std::size_t seed_member = 0;
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
/// change the answer.  Seeded members get their seed member's packing.
/// If `winner` is non-null it receives the winning algorithm's name.
/// The ProfileBackendKind parameter is ignored — no library code passes
/// it; it is kept only for e2ebench/src/layers.cpp until e2ebench v2.
[[nodiscard]] Packing best_of_portfolio(
    const Instance& instance, std::string* winner = nullptr,
    ProfileBackendKind = ProfileBackendKind::kAuto);

}  // namespace dsp::algo
