#pragma once

// The Theorem-5 differential corpus: instances whose optimum is proven
// (exact::min_peak) or certified by construction, each solved at a fixed
// eps.  Per solve, the returned peak must be within (5/4 + eps) OPT.  The
// pipeline alone (`bisect` over solve54's [LB, UB], run on every solve:
// solve54 skips it when the witness meets the lower bound, which would
// hide its misses) and one `attempt` at H' = OPT are only counted: a
// ratchet holds each count at or below the value recorded when the suite
// was introduced, so it may fall, never rise.  Never re-seed or resize a
// corpus to move a count.
//
// test_approx54 (fast label) runs the n = 6 exact families and the
// certified corpora; test_properties (slow label) runs the exact families
// at n = 10.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "core/packing.hpp"
#include "exact/dsp_exact.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "util/prng.hpp"

namespace dsp::theorem5 {

/// One solve of the corpus: an instance, its optimum and the eps to run.
struct Solve {
  Instance instance;
  Height opt = 0;
  Fraction epsilon;
};

/// A corpus with the counts it may not exceed.
struct Ratchet {
  const char* corpus;
  /// Items per instance (exact families; else 0).
  std::size_t n;
  /// Solves whose pipeline peak exceeds (5/4 + eps) OPT.
  std::size_t max_pipeline_over;
  /// Solves with !attempt(instance, OPT, eps).within_budget.
  std::size_t max_attempt_failed;
};

inline std::string label_of(const Ratchet& ratchet) {
  std::string label = ratchet.corpus;
  if (ratchet.n > 0) label += " n=" + std::to_string(ratchet.n);
  return label;
}

inline void PrintTo(const Ratchet& ratchet, std::ostream* os) {
  *os << label_of(ratchet);
}

/// The instance of an exact family on W = 12 with heights <= 10.
inline Instance exact_instance(const std::string& family, std::size_t n,
                               Rng& rng) {
  if (family == "uniform") return gen::random_uniform(n, 12, 6, 10, rng);
  if (family == "tall") return gen::tall_items(n, 12, 10, rng);
  if (family == "wide") return gen::wide_items(n, 12, 10, rng);
  if (family == "equal_width") return gen::equal_width(n, 12, 4, 10, rng);
  if (family == "correlated") return gen::correlated(n, 12, 6, 10, rng);
  return gen::perfect_packing(n, 12, 10, rng);
}

/// Every solve of one corpus:
///   - an exact family: seeds 1-60 (`Rng(seed)`), OPT by exact::min_peak,
///     eps in {1/4, 1/8, 1/20};
///   - "planted": gen::planted_yes(2, 16) at seeds 1-20, OPT = 4 (the
///     planted 3-Partition packs at 4, the area bound), same eps;
///   - "gap": gen::gap_instance(), OPT = 4 (tests/test_gap.cpp), same eps;
///   - "perfect_scale": perfect packings with OPT = H = 200 at
///     n in {20, 60, 150, 400} x W in {64, 512, 2048} x seeds 1-10,
///     eps = 1/8.
inline std::vector<Solve> corpus(const std::string& name, std::size_t n) {
  const Fraction epsilons[] = {Fraction(1, 4), Fraction(1, 8),
                               Fraction(1, 20)};
  std::vector<Solve> solves;
  const auto add = [&](const Instance& instance, Height opt) {
    for (const Fraction& eps : epsilons) solves.push_back({instance, opt, eps});
  };
  if (name == "planted") {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      const Instance instance = gen::planted_yes(2, 16, rng).instance;
      EXPECT_EQ(combined_lower_bound(instance), 4) << instance.summary();
      add(instance, 4);
    }
  } else if (name == "gap") {
    add(gen::gap_instance(), 4);
  } else if (name == "perfect_scale") {
    for (const std::size_t items : {20, 60, 150, 400}) {
      for (const Length w : {64, 512, 2048}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
          Rng rng(seed);
          solves.push_back(
              {gen::perfect_packing(items, w, 200, rng), 200, Fraction(1, 8)});
        }
      }
    }
  } else {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed);
      const Instance instance = exact_instance(name, n, rng);
      const exact::OptResult opt = exact::min_peak(instance);
      EXPECT_TRUE(opt.proven_optimal) << instance.summary();
      add(instance, opt.peak);
    }
  }
  return solves;
}

struct Tally {
  std::size_t solves = 0;
  std::size_t pipeline_over = 0;
  std::size_t attempt_failed = 0;
};

/// Solves every entry, checks the returned peak against (5/4 + eps) OPT,
/// OPT itself and the better of the witness and the pipeline, and the
/// packing of `attempt` at H' = OPT for feasibility, counts the pipeline's
/// and the attempt's misses, and prints the counts to the test log.
inline Tally run(const std::vector<Solve>& solves, const std::string& label) {
  Tally tally;
  for (const Solve& solve : solves) {
    const Height bound = floor_mul(solve.opt, Fraction(5, 4) + solve.epsilon);
    const approx::Approx54Result result =
        approx::solve54(solve.instance, {.epsilon = solve.epsilon});
    EXPECT_LE(result.peak, bound)
        << label << " eps " << solve.epsilon << " " << solve.instance.summary();
    EXPECT_GE(result.peak, solve.opt)
        << label << " " << solve.instance.summary();
    ++tally.solves;
    const approx::Bisection pipeline =
        approx::bisect(solve.instance, result.report.lower_bound,
                       result.report.upper_bound, solve.epsilon);
    EXPECT_EQ(result.peak, std::min(result.report.upper_bound, pipeline.peak))
        << label << " " << solve.instance.summary();
    if (pipeline.peak > bound) ++tally.pipeline_over;
    const approx::Attempt at_opt =
        approx::attempt(solve.instance, solve.opt, solve.epsilon);
    EXPECT_NO_THROW(validate_packing(solve.instance, at_opt.packing)) << label;
    EXPECT_EQ(peak_height(solve.instance, at_opt.packing), at_opt.peak)
        << label;
    if (!at_opt.within_budget) ++tally.attempt_failed;
  }
  std::cout << "[theorem5] " << label
            << ": pipeline_peak over (5/4 + eps) OPT " << tally.pipeline_over
            << "/" << tally.solves << ", attempt(OPT) over budget "
            << tally.attempt_failed << "/" << tally.solves << "\n";
  return tally;
}

/// The ratchet test body shared by the fast and slow suites.
inline void check_ratchet(const Ratchet& ratchet) {
  const std::string label = label_of(ratchet);
  const Tally tally = run(corpus(ratchet.corpus, ratchet.n), label);
  EXPECT_LE(tally.pipeline_over, ratchet.max_pipeline_over) << label;
  EXPECT_LE(tally.attempt_failed, ratchet.max_attempt_failed) << label;
}

}  // namespace dsp::theorem5
