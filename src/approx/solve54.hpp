#pragma once

#include <string>

#include "approx/classify.hpp"
#include "approx/config_lp.hpp"
#include "core/packing.hpp"

namespace dsp::approx {

/// Parameters of the (5/4+eps) algorithm (Theorem 5).  The stand-ins for
/// the paper's astronomically large constants (Lemma-2 ladder length, LP
/// valves, gap-box cap) are fixed in solve54.cpp; DESIGN.md substitutions
/// 3-4 name them.
struct Approx54Params {
  /// The accuracy parameter; budget per guess is (5/4 + eps) * H'.
  Fraction epsilon = Fraction(1, 4);
};

/// Diagnostics of one run — the quantities experiments E7/E9/E11 report.
struct Approx54Report {
  Height lower_bound = 0;       ///< combined lower bound (binary-search floor)
  Height upper_bound = 0;       ///< witness peak (binary-search ceiling)
  Height best_guess = 0;        ///< smallest H' whose attempt succeeded
  Height pipeline_peak = 0;     ///< best peak achieved by the pipeline itself
  std::size_t count_per_category[7] = {0, 0, 0, 0, 0, 0, 0};
  std::int64_t medium_area = 0;  ///< area of M u Mv at the best guess
  bool lp_used = false;          ///< Lemma-10 LP solved at the best guess
  std::size_t lp_configurations = 0;  ///< columns generated at the best guess
  std::size_t lp_pricing_rounds = 0;  ///< CG re-solve rounds
  bool lp_capped = false;        ///< an LP safety valve was hit
  std::size_t lp_overflow = 0;   ///< items through the extra-box path
  std::size_t attempts = 0;      ///< binary-search probes (all rounds)
  std::size_t rounds = 0;        ///< binary-search rounds (== attempts)
  /// Phase-level latency breakdown (obs/trace.hpp scoped spans), summed
  /// over every attempt of the bisection: total attempt wall nanos, the
  /// slice spent in CG pricing rounds, and the slice inside LP (re)solves.
  /// Observed, never branched on; all zero when the obs metrics switch is
  /// off.
  std::uint64_t attempt_nanos = 0;
  std::uint64_t pricing_nanos = 0;
  std::uint64_t lp_resolve_nanos = 0;
};

struct Approx54Result {
  Packing packing;
  Height peak = 0;  ///< the returned packing's peak (witness included)
  Approx54Report report;
};

/// One attempt at the height guess H' (steps 3-6 below), packed onto its
/// own empty profile.  `solve54` is a bisection over H' around this call.
struct Attempt {
  Packing packing;             ///< always feasible
  Height peak = 0;             ///< peak of `packing`
  bool within_budget = false;  ///< peak <= (5/4 + eps) H' + 2 eps H'
  Classification cls;          ///< step 3's classification at H'
  /// Step 5a's Lemma-10 LP; left default (`lp_solved == false`) when H'
  /// classifies no item as vertical.
  VerticalFillResult fill;
};

/// Runs steps 3-6 at the guess `h_guess` >= 1 with eps in (0, 1/2].
[[nodiscard]] Attempt attempt(const Instance& instance, Height h_guess,
                              const Fraction& epsilon);

/// The (5/4+eps)-approximation for DSP (Theorem 5), in the constructive
/// realization documented in DESIGN.md (substitution 4):
///
///   step 1  lower/upper bounds (combined LB; baseline-portfolio witness)
///   step 2  binary search over the height guess H', starting with the
///           floor probe H' = lower bound; each probe is one `attempt`
///   step 3  Lemma-2 parameter selection + Fig.-5 classification +
///           Lemma-3 height rounding
///   step 4  skeleton: large and tall items, tallest first, first-fit under
///           the budget (5/4+eps) H'
///   step 5  vertical items through the Lemma-10 configuration LP over the
///           gap boxes of the skeleton profile; horizontal items by
///           decreasing width first-fit (Lemma-11's rounding order); small
///           items first-fit into the remaining gaps (Lemma 13)
///   step 6  discarded medium items on top (Lemma 14, NFDH order)
///   step 7  the best packing over all guesses (never worse than the
///           witness) is returned
///
/// Runs entirely on the calling thread.  Every placement step and the
/// witness portfolio run on the run-length Profile (core/profile.hpp): a
/// placement costs O(runs), not O(W).  The returned packing is always
/// feasible; peak quality is certified per run against the lower bound
/// (experiment E7 measures the ratio).  The (5/4 + eps) OPT bound is
/// checked on the returned peak, while `report.pipeline_peak` exceeds it
/// on a counted share of the exact corpus (tests/theorem5_corpus.hpp).
[[nodiscard]] Approx54Result solve54(const Instance& instance,
                                     const Approx54Params& params = {});

}  // namespace dsp::approx
