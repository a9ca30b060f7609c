#pragma once

#include <optional>
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
/// When the witness is certified (its peak is at most
/// floor((5/4 + eps) lower_bound), so within the Theorem-5 bound since
/// LB <= OPT), step 2 is skipped: `attempts` and `rounds` are 0,
/// `pipeline_peak == upper_bound`, and every field below `pipeline_peak`
/// keeps its default.  `attempts == 0` marks that certified answer;
/// `bisect` measures the pipeline on it, and its `accepted` attempt
/// carries the classification and every LP counter.
struct Approx54Report {
  Height lower_bound = 0;       ///< combined lower bound (binary-search floor)
  Height upper_bound = 0;       ///< witness peak (binary-search ceiling)
  /// Best peak of the pipeline's own attempts; `upper_bound` when no
  /// attempt ran.
  Height pipeline_peak = 0;
  bool lp_used = false;          ///< Lemma-10 LP solved at the accepted guess
  std::size_t lp_pricing_rounds = 0;  ///< CG re-solve rounds there
  std::size_t attempts = 0;      ///< binary-search probes (0: certified)
  std::size_t rounds = 0;        ///< binary-search rounds (== attempts)
  /// Phase-level latency breakdown (obs/trace.hpp scoped spans), summed
  /// over every attempt of the bisection: total attempt wall nanos, the
  /// slice spent in CG pricing rounds, and the slice inside LP (re)solves.
  /// Observed, never branched on; all zero when the obs metrics switch is
  /// off or no attempt ran.
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
/// own empty profile.  `bisect` is a bisection over H' around this call.
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

/// Step 2: the bisection over H' in [lower, upper], one `attempt` per
/// probe.  Round 1 is the floor probe H' = lower; later rounds probe the
/// midpoint, a success lowering the ceiling and a failure raising the
/// floor.  At most 1 + bit_width(upper - lower) probes.
struct Bisection {
  /// The success at the smallest H' (`accepted->cls.h_guess`); empty when
  /// every probe failed.
  std::optional<Attempt> accepted;
  Packing packing;           ///< the lowest-peak probe's packing (first wins)
  Height peak = 0;           ///< peak of `packing`
  std::size_t attempts = 0;  ///< probes made (>= 1)
  /// Summed over the probes, as in `Approx54Report`.
  std::uint64_t attempt_nanos = 0;
  std::uint64_t pricing_nanos = 0;
  std::uint64_t lp_resolve_nanos = 0;
};

/// Runs step 2 with lower <= upper and eps in (0, 1/2].  `solve54`
/// calls it with the step-1 bounds only when the witness is not
/// certified; the Theorem-5 ratchet, the pins and E7 call it on every
/// instance to measure the pipeline whether or not `solve54` needed it.
[[nodiscard]] Bisection bisect(const Instance& instance, Height lower,
                               Height upper, const Fraction& epsilon);

/// The (5/4+eps)-approximation for DSP (Theorem 5), in the constructive
/// realization documented in DESIGN.md (substitution 4):
///
///   step 1  lower/upper bounds (combined LB; baseline-portfolio witness);
///           a witness peaking at most floor((5/4 + eps) LB) already meets
///           the bound and is returned without an attempt (the certificate;
///           a witness at the lower bound is the special case)
///   step 2  otherwise `bisect` over the height guess H' in [LB, witness
///           peak], starting with the floor probe H' = lower bound; each
///           probe is one `attempt`
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
///           witness; the witness wins ties) is returned
///
/// Runs entirely on the calling thread.  Every placement step, and the
/// greedy, first-fit and bottom-left witness members, run on the
/// run-length Profile (core/profile.hpp): a placement costs O(runs), not
/// O(W).  The nfdh, ffdh and sleator members place on shelves.  The
/// returned packing is always feasible; peak quality is certified per run
/// against the lower bound (experiment E7 measures the ratio).  The
/// (5/4 + eps) OPT bound is checked on the returned peak, while the
/// pipeline alone (`bisect`'s peak) exceeds it on a counted share of the
/// exact corpus (tests/theorem5_corpus.hpp).  A certified witness is
/// returned even where `bisect` would reach a lower peak; that corpus
/// counts such answers too.
[[nodiscard]] Approx54Result solve54(const Instance& instance,
                                     const Approx54Params& params = {});

}  // namespace dsp::approx
