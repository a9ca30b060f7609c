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
/// only accepts uniform widths and is benchmarked separately), with the
/// profile-driven members bound to the given backend (nfdh/ffdh/sleator
/// keep their shelf bookkeeping; greedy, first-fit and bottom-left switch
/// their placement profile).  kAuto resolves it to the run-length profile.
[[nodiscard]] std::vector<NamedAlgorithm> baseline_portfolio(
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

/// Runs the portfolio in order and returns the packing with the lowest peak
/// (the earliest member on ties).  Stops once the best peak reaches
/// combined_lower_bound: no feasible packing peaks lower, and only a
/// strictly lower peak replaces the best, so the skipped members cannot
/// change the answer.  Seeded members get their seed member's packing.
/// If `winner` is non-null it receives the winning algorithm's name.
/// The default kAuto backend is the run-length profile; dense and sparse
/// produce identical packings (the equivalence suite), only the cost
/// differs.
[[nodiscard]] Packing best_of_portfolio(
    const Instance& instance, std::string* winner = nullptr,
    ProfileBackendKind backend = ProfileBackendKind::kAuto);

}  // namespace dsp::algo
