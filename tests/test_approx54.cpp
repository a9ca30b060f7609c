#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "algo/portfolio.hpp"
#include "approx/config_lp.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/smart_grid.hpp"
#include "util/prng.hpp"

#include "solve_cold_cells.hpp"
#include "theorem5_corpus.hpp"

namespace dsp::approx {
namespace {

TEST(ConfigLp, PlacesUniformVerticalsExactly) {
  // Ten 1x4 items into one gap box of capacity 8 and width 5: two lanes of
  // five items each — no overflow.
  std::vector<Item> items(10, Item{1, 4});
  const Instance inst(5, items);
  std::vector<std::size_t> indices(10);
  for (std::size_t i = 0; i < 10; ++i) indices[i] = i;
  Classification cls =
      classify(inst, 8, Fraction(1, 4), Fraction(1, 8), Fraction(1, 32));
  RoundedHeights rounding;
  rounding.rounded.assign(10, 4);
  rounding.grid.assign(10, 1);
  const std::vector<GapBox> boxes = {{0, 5, 8}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_TRUE(fill.lp_solved);
  EXPECT_TRUE(fill.overflow.empty());
  // All placed within [0, 5).
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_GE(fill.start[k], 0);
    EXPECT_LE(fill.start[k], 4);
  }
}

TEST(ConfigLp, OverflowsWhenBoxesTooSmall) {
  std::vector<Item> items(4, Item{3, 4});
  const Instance inst(6, items);
  std::vector<std::size_t> indices = {0, 1, 2, 3};
  RoundedHeights rounding;
  rounding.rounded.assign(4, 4);
  rounding.grid.assign(4, 1);
  // One box of width 3, capacity 4: one item fits, three overflow (the LP
  // itself is infeasible — total width 12 != 3).
  const std::vector<GapBox> boxes = {{0, 3, 4}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_FALSE(fill.overflow.empty());
}

TEST(ConfigLp, MixedHeightsShareABox) {
  // Heights 3 and 2 with capacity 5: config {1x3 + 1x2} is the tight one.
  std::vector<Item> items = {{2, 3}, {2, 3}, {2, 2}, {2, 2}};
  const Instance inst(4, items);
  std::vector<std::size_t> indices = {0, 1, 2, 3};
  RoundedHeights rounding;
  rounding.rounded = {3, 3, 2, 2};
  rounding.grid.assign(4, 1);
  const std::vector<GapBox> boxes = {{0, 4, 5}};
  const VerticalFillResult fill =
      fill_vertical_items(inst, indices, rounding, boxes);
  EXPECT_TRUE(fill.lp_solved);
  EXPECT_TRUE(fill.overflow.empty());
}

TEST(Solve54, FeasibleOnGapInstanceAtOptimal) {
  const Instance inst = gen::gap_instance();
  const Approx54Result result = solve54(inst);
  ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
  EXPECT_EQ(peak_height(inst, result.packing), result.peak);
  // 5/4-regime: OPT = 4 here, so the result must be at most 5.
  EXPECT_LE(result.peak, 5);
}

TEST(Solve54, NearOptimalOnPerfectPackingFamily) {
  Rng rng(22);
  for (int round = 0; round < 5; ++round) {
    const Instance inst = gen::perfect_packing(40, 64, 32, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    // OPT = 32 exactly (tiling); (5/4+eps) regime check.
    EXPECT_LE(result.peak, ceil_mul(32, Fraction(3, 2))) << inst.summary();
  }
}

TEST(Solve54, ReportIsConsistent) {
  // Adversarial row 1 (LB 13, witness 21): the witness is not certified,
  // so the search runs.
  const Instance inst = theorem5::adversarial_instances().front();
  const Approx54Result result = solve54(inst);
  const Approx54Report& report = result.report;
  ASSERT_FALSE(theorem5::certified(report.lower_bound, report.upper_bound,
                                   Approx54Params{}.epsilon));
  EXPECT_GE(result.peak, report.lower_bound);
  EXPECT_LE(result.peak, report.upper_bound);
  EXPECT_GE(report.pipeline_peak, report.lower_bound);
  EXPECT_GE(report.attempts, 1u);
  EXPECT_EQ(report.rounds, report.attempts);  // one probe per round
  // The accepted attempt, read from bisect: its guess lies in [LB, UB], it
  // classifies every item, and the report carries its LP use.
  const Bisection search = bisect(inst, report.lower_bound,
                                  report.upper_bound, Approx54Params{}.epsilon);
  ASSERT_TRUE(search.accepted.has_value());
  const Classification& cls = search.accepted->cls;
  EXPECT_GE(cls.h_guess, report.lower_bound);
  EXPECT_LE(cls.h_guess, report.upper_bound);
  EXPECT_EQ(cls.category.size(), inst.size());
  EXPECT_EQ(report.lp_used, search.accepted->fill.lp_solved);
  EXPECT_EQ(report.lp_pricing_rounds, search.accepted->fill.pricing_rounds);
}

/// The pipeline alone on a solve54 result's bounds: `bisect` over
/// [LB, UB], whether or not solve54 needed the search.
Bisection pipeline_of(const Instance& inst, const Approx54Result& result) {
  return bisect(inst, result.report.lower_bound, result.report.upper_bound,
                Approx54Params{}.epsilon);
}

TEST(Solve54, ReturnedPeakIsTheBetterOfWitnessAndPipeline) {
  // E7 reports the pipeline's peak (from bisect) next to the returned
  // peak: the pipeline's own best may exceed the returned peak (the
  // witness can win), and it is below the returned peak only where the
  // certified witness was returned without a search.
  std::vector<Instance> instances;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  Rng rng(29);
  for (int round = 0; round < 6; ++round) {
    instances.push_back(gen::random_uniform(30, 64, 32, 16, rng));
  }
  for (const Instance& inst : instances) {
    const Approx54Result result = solve54(inst);
    const Bisection search = pipeline_of(inst, result);
    ASSERT_GE(search.attempts, 1u) << inst.summary();
    if (result.report.attempts == 0) {
      EXPECT_EQ(result.peak, result.report.upper_bound) << inst.summary();
    } else {
      EXPECT_EQ(result.peak, std::min(result.report.upper_bound, search.peak))
          << inst.summary();
    }
  }
}

/// Solves `inst` at `eps` and checks solve54 against its definition.  A
/// certified witness (peak <= floor((5/4 + eps) LB)) is returned with no
/// attempt and the step-1 report.  Otherwise the answer is the witness
/// unless `bisect` over [LB, witness peak] reaches a strictly lower peak,
/// and then that probe's packing; the report's search fields, and the LP
/// fields of its accepted attempt, are bisect's.  `bisect` runs on every
/// instance; returns both.
struct Solved {
  Approx54Result result;
  Bisection pipeline;
  bool certified = false;
};

Solved solve_and_check(const Instance& inst, const Fraction& eps) {
  Solved solved{solve54(inst, {.epsilon = eps}), {}};
  const Approx54Result& result = solved.result;
  const Approx54Report& report = result.report;
  const Packing witness = algo::best_of_portfolio(inst);
  const Height witness_peak = peak_height(inst, witness);
  const Height lower = combined_lower_bound(inst);
  solved.pipeline = bisect(inst, lower, witness_peak, eps);
  solved.certified = theorem5::certified(lower, witness_peak, eps);
  const Bisection& search = solved.pipeline;
  EXPECT_EQ(report.lower_bound, lower);
  EXPECT_EQ(report.upper_bound, witness_peak);
  if (solved.certified) {
    EXPECT_EQ(result.packing.start, witness.start) << inst.summary();
    EXPECT_EQ(result.peak, witness_peak) << inst.summary();
    EXPECT_EQ(report.attempts, 0u) << inst.summary();
    EXPECT_EQ(report.rounds, 0u) << inst.summary();
    EXPECT_EQ(report.pipeline_peak, witness_peak) << inst.summary();
    EXPECT_FALSE(report.lp_used) << inst.summary();
    EXPECT_EQ(report.lp_pricing_rounds, 0u) << inst.summary();
    EXPECT_EQ(report.attempt_nanos, 0u) << inst.summary();
    EXPECT_EQ(report.pricing_nanos, 0u) << inst.summary();
    EXPECT_EQ(report.lp_resolve_nanos, 0u) << inst.summary();
    return solved;
  }
  const Packing& expected =
      search.peak < witness_peak ? search.packing : witness;
  EXPECT_EQ(result.packing.start, expected.start) << inst.summary();
  EXPECT_EQ(result.peak, std::min(witness_peak, search.peak))
      << inst.summary();
  EXPECT_EQ(report.attempts, search.attempts) << inst.summary();
  EXPECT_EQ(report.rounds, search.attempts) << inst.summary();
  EXPECT_EQ(report.pipeline_peak, search.peak) << inst.summary();
  const VerticalFillResult* fill =
      search.accepted ? &search.accepted->fill : nullptr;
  EXPECT_EQ(report.lp_used, fill != nullptr && fill->lp_solved)
      << inst.summary();
  EXPECT_EQ(report.lp_pricing_rounds,
            fill != nullptr ? fill->pricing_rounds : 0u)
      << inst.summary();
  return solved;
}

/// Each adversarial instance at each corpus eps, with whether its witness
/// is certified there: row 1 never, rows 2-5 only at eps = 1/4 (their
/// witness sits at exactly floor(3/2 LB)).
struct AdversarialSolve {
  Instance instance;
  Fraction epsilon;
  bool certified;
};

std::vector<AdversarialSolve> adversarial_solves() {
  std::vector<AdversarialSolve> solves;
  const std::vector<Instance> rows = theorem5::adversarial_instances();
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (const Fraction eps :
         {Fraction(1, 4), Fraction(1, 8), Fraction(1, 20)}) {
      solves.push_back({rows[row], eps, row > 0 && eps == Fraction(1, 4)});
    }
  }
  return solves;
}

TEST(Solve54, IsTheBetterOfWitnessAndBisection) {
  // The golden corpus, the 36 solve-cold cells and the 5 solve-wide cell
  // shapes (fresh draws; WideStripPackingsMatchRecordedFingerprints and
  // the Solve54Pin families run the same check on their own solves), all
  // certified at the default eps, and the adversarial instances, where the
  // certificate fails and the search runs.
  std::vector<Instance> instances;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  for (const testing_cells::SolveColdCell& cell :
       testing_cells::solve_cold_cells()) {
    instances.push_back(testing_cells::solve_cold_instance(cell));
  }
  for (Instance& inst : testing_cells::solve_wide_instances()) {
    instances.push_back(std::move(inst));
  }
  std::size_t certified = 0;
  std::size_t solves = 0;
  for (const Instance& inst : instances) {
    const Solved solved = solve_and_check(inst, Approx54Params{}.epsilon);
    certified += solved.certified ? 1 : 0;
    ++solves;
  }
  for (const AdversarialSolve& adversarial : adversarial_solves()) {
    const Solved solved =
        solve_and_check(adversarial.instance, adversarial.epsilon);
    EXPECT_EQ(solved.certified, adversarial.certified)
        << "eps " << adversarial.epsilon << " "
        << adversarial.instance.summary();
    certified += solved.certified ? 1 : 0;
    ++solves;
  }
  // Both paths are exercised.
  EXPECT_GT(certified, 0u);
  EXPECT_LT(certified, solves);
}

TEST(Solve54, SkipsTheSearchWhenTheWitnessIsCertified) {
  // The witness meets the lower bound on four of these (equal-width
  // 16 = 16, hardness 4 = 4, smart-grid 74 = 74, one item on W = 1) and
  // lies strictly between LB and floor((5/4 + eps) LB) on the other golden
  // instances: either way it proves Theorem 5, so it is returned without
  // an attempt and the report keeps its step-1 defaults.
  std::vector<Instance> instances;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  instances.push_back(Instance(1, {Item{1, 7}}));
  std::size_t at_lower_bound = 0;
  for (const Instance& inst : instances) {
    const Approx54Result result = solve54(inst);
    const Approx54Report& report = result.report;
    ASSERT_TRUE(theorem5::certified(report.lower_bound, report.upper_bound,
                                    Approx54Params{}.epsilon))
        << inst.summary();
    at_lower_bound += report.upper_bound == report.lower_bound ? 1 : 0;
    EXPECT_EQ(result.packing.start, algo::best_of_portfolio(inst).start);
    EXPECT_EQ(result.peak, report.upper_bound);
    EXPECT_EQ(report.pipeline_peak, report.upper_bound);
    EXPECT_EQ(report.attempts, 0u);
    EXPECT_EQ(report.rounds, 0u);
    EXPECT_FALSE(report.lp_used);
    EXPECT_EQ(report.lp_pricing_rounds, 0u);
    EXPECT_EQ(report.attempt_nanos, 0u);
    EXPECT_EQ(report.pricing_nanos, 0u);
    EXPECT_EQ(report.lp_resolve_nanos, 0u);
  }
  EXPECT_EQ(at_lower_bound, 4u);
}

/// One item of height h on W = 1: the witness is optimal, so solve54
/// answers at step 1, while the floor probe H' = h (alone, and as the one
/// probe of `bisect`) must pass the acceptance test, whose sum form
/// budget + allowance passes INT64_MAX here.
void expect_single_item_floor_probe_succeeds(Height h, Fraction eps) {
  const Instance inst(1, {Item{1, h}});
  const Attempt at_floor = attempt(inst, h, eps);
  EXPECT_TRUE(at_floor.within_budget);
  EXPECT_EQ(at_floor.peak, h);
  const Bisection search = bisect(inst, h, h, eps);
  ASSERT_TRUE(search.accepted.has_value());
  EXPECT_EQ(search.accepted->cls.h_guess, h);
  EXPECT_EQ(search.attempts, 1u);
  EXPECT_EQ(search.peak, h);
  const Approx54Result result = solve54(inst, {.epsilon = eps});
  EXPECT_EQ(result.report.attempts, 0u);
  EXPECT_EQ(result.peak, h);
}

TEST(Solve54, AcceptanceTestHoldsAtTheIngestCap) {
  // W·Σh = 2^62, the largest the ingest cap admits: at eps = 1/4 the
  // budget 3/2·H' plus the allowance 1/2·H' is exactly 2^63.
  expect_single_item_floor_probe_succeeds(Height{1} << 62, Fraction(1, 4));
}

TEST(Solve54, AcceptanceTestHoldsBelowTheCapAtTheLargestEpsilon) {
  // At eps = 1/2 the budget is 7/4·H' and the allowance H': their sum
  // passes INT64_MAX one below the cap too.
  expect_single_item_floor_probe_succeeds((Height{1} << 62) - 1,
                                          Fraction(1, 2));
}

class Theorem5 : public ::testing::TestWithParam<theorem5::Ratchet> {};

TEST_P(Theorem5, ReturnedPeakWithinBoundAndPipelineMissesRatcheted) {
  theorem5::check_ratchet(GetParam());
}

// The ceilings are the counts of the solve54 these tests were introduced
// on (1080 exact solves: 232 pipeline misses, 14 attempt(OPT) misses; the
// adversarial corpus: 14 and 2 of 15, and 10 returned-peak misses).
// Lower one when a change lowers its count; never raise one.
INSTANTIATE_TEST_SUITE_P(
    Corpora, Theorem5,
    ::testing::Values(theorem5::Ratchet{"uniform", 6, 37, 0},
                      theorem5::Ratchet{"tall", 6, 42, 0},
                      theorem5::Ratchet{"wide", 6, 2, 0},
                      theorem5::Ratchet{"equal_width", 6, 42, 0},
                      theorem5::Ratchet{"correlated", 6, 30, 0},
                      theorem5::Ratchet{"perfect", 6, 79, 14},
                      theorem5::Ratchet{"planted", 0, 40, 0},
                      theorem5::Ratchet{"gap", 0, 2, 0},
                      theorem5::Ratchet{"perfect_scale", 0, 119, 15},
                      theorem5::Ratchet{"adversarial", 0, 14, 2, 10}),
    [](const ::testing::TestParamInfo<theorem5::Ratchet>& info) {
      return std::string(info.param.corpus);
    });

TEST(Solve54, RoundOneIsTheFloorProbe) {
  Rng rng(405);
  const Instance inst = gen::random_uniform(30, 48, 20, 10, rng);
  const Solved solved = solve_and_check(inst, Approx54Params{}.epsilon);
  const Approx54Report& report = solved.result.report;
  ASSERT_GT(report.upper_bound, report.lower_bound);
  // If the optimistic floor probe succeeds, the search ends in one round
  // accepting H' = lower_bound; otherwise the bisection continues and the
  // accepted guess (if any) lies strictly above the floor.
  const Bisection& search = solved.pipeline;
  if (search.attempts == 1) {
    ASSERT_TRUE(search.accepted.has_value());
    EXPECT_EQ(search.accepted->cls.h_guess, report.lower_bound);
  } else if (search.accepted) {
    EXPECT_GT(search.accepted->cls.h_guess, report.lower_bound);
  }
}

/// FNV-1a over the start positions: a compact fingerprint of a packing.
std::uint64_t fingerprint_of(const Packing& packing) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const Length start : packing.start) {
    hash ^= static_cast<std::uint64_t>(start);
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(Solve54, GoldenPackingsMatchRecordedFingerprints) {
  // Recorded default-parameter answers on the golden corpus: a change to
  // the search, the attempt or the witness that moves a single start fails
  // here.
  // Re-record only for a deliberate change.
  struct Expected {
    const char* name;
    Height peak;
    std::uint64_t fingerprint;
  };
  static constexpr Expected kExpected[] = {
      {"correlated", 33, 0x0e2d36d0a5303f5full},
      {"equal-width", 16, 0xa08c81b701614cbfull},
      {"gap", 5, 0x773baabf979b19c8ull},
      {"hardness", 4, 0x6739243c9ab5826eull},
      {"perfect", 20, 0xa0a58069c89e4768ull},
      {"smart-grid", 74, 0x484e423b12ccb624ull},
      {"tall", 22, 0xc1057c4d0967d9a3ull},
      {"uniform", 34, 0x946e0cc5a2de9575ull},
      {"wide", 73, 0x7395ae1d67b8cd8bull},
  };
  const std::vector<gen::GoldenInstance> corpus = gen::golden_corpus();
  ASSERT_EQ(corpus.size(), std::size(kExpected));
  for (std::size_t f = 0; f < corpus.size(); ++f) {
    ASSERT_EQ(corpus[f].name, kExpected[f].name);
    const Approx54Result result = solve54(corpus[f].instance);
    EXPECT_EQ(result.peak, kExpected[f].peak) << corpus[f].name;
    EXPECT_EQ(fingerprint_of(result.packing), kExpected[f].fingerprint)
        << corpus[f].name;
  }
}

TEST(Solve54, WideStripPackingsMatchRecordedFingerprints) {
  // The solve-wide shapes: a week at minute resolution (appliance
  // durations x15, W = 10080) and a 2^16-column uniform strip.  Recorded
  // on the run-length profile; the pipeline peak (bisect over [LB, UB])
  // pins the attempts even where the witness wins or solve54 skips them.
  const std::vector<gen::Appliance> minutes = testing_cells::minute_catalog();
  struct Expected {
    bool smart_grid;  ///< else uniform
    std::size_t n;
    std::uint64_t seed;
    Height peak;
    Height pipeline_peak;
    std::uint64_t fingerprint;
  };
  static constexpr Expected kExpected[] = {
      {true, 50, 1007, 98, 147, 0xae6a35a472092a67ull},
      {true, 100, 1008, 110, 165, 0x5b2fa5d44a54bb79ull},
      {true, 150, 1011, 110, 165, 0xd999f41caa8d2ba6ull},
      {false, 30, 1009, 239, 314, 0xfcefa710dff15db4ull},
      {false, 60, 1010, 367, 525, 0x15f24b10870480e5ull},
  };
  for (const Expected& expected : kExpected) {
    Rng rng(expected.seed);
    const Instance instance =
        expected.smart_grid
            ? gen::smart_grid(expected.n, 10080, rng, minutes)
            : gen::random_uniform(expected.n, 65536, 65536 / 4, 100, rng);
    const Solved solved = solve_and_check(instance, Approx54Params{}.epsilon);
    const Approx54Result& result = solved.result;
    validate_packing(instance, result.packing);
    EXPECT_EQ(result.peak, expected.peak) << instance.summary();
    EXPECT_EQ(solved.pipeline.peak, expected.pipeline_peak)
        << instance.summary();
    EXPECT_EQ(fingerprint_of(result.packing), expected.fingerprint)
        << instance.summary();
  }
}

/// Folds one value into a running checksum.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct Solve54PinFamily {
  const char* name;
  std::uint64_t seed;
  int instances;  ///< each solved at three epsilons
  std::size_t min_lp_used;        ///< solves whose best guess used the LP
  std::size_t min_multi_attempt;  ///< solves that made a second attempt
  /// Certified solves whose pipeline peak is below the returned witness's.
  std::size_t max_certified_pipeline_lower;
  std::uint64_t pin;
};

void PrintTo(const Solve54PinFamily& family, std::ostream* os) {
  *os << family.name;
}

/// n in [10, 120] on W in [32, 512], or the exact-solver scale n = 6,
/// W = 12 for the small families (where the floor probe fails often enough
/// to reach a second attempt).
Instance solve54_pin_instance(const std::string& family, Rng& rng) {
  if (family == "small_uniform") return gen::random_uniform(6, 12, 6, 10, rng);
  if (family == "small_tall") return gen::tall_items(6, 12, 10, rng);
  const auto n = static_cast<std::size_t>(rng.uniform(10, 120));
  const Length w = rng.uniform(32, 512);
  if (family == "uniform") return gen::random_uniform(n, w, w / 4, 100, rng);
  if (family == "tall") return gen::tall_items(n, w, 100, rng);
  if (family == "wide") return gen::wide_items(n, w, 20, rng);
  if (family == "correlated") return gen::correlated(n, w, w / 4, 100, rng);
  if (family == "perfect") return gen::perfect_packing(n, w, 200, rng);
  return gen::smart_grid(n, w, rng);
}

class Solve54Pin : public ::testing::TestWithParam<Solve54PinFamily> {};

TEST_P(Solve54Pin, ChecksumIsPinned) {
  // Every start and peak of each solve at eps in {1/4, 1/8, 1/20}, with
  // the pipeline's peak, attempts and accepted lp_* counters from bisect
  // over [LB, UB], folded in order; solve_and_check ties each answer to
  // them.  The floor counts keep the pin covering the Lemma-10 LP (tall)
  // and the bisection's later attempts (small): a generator change that
  // stops reaching them fails here instead of silently shrinking the pin.
  // Re-record only for a deliberate change to the algorithm.
  const Solve54PinFamily& family = GetParam();
  Rng rng(family.seed);
  std::uint64_t checksum = 0;
  std::size_t lp_used = 0;
  std::size_t multi_attempt = 0;
  std::size_t certified_pipeline_lower = 0;
  for (int round = 0; round < family.instances; ++round) {
    const Instance inst = solve54_pin_instance(family.name, rng);
    for (const Fraction eps :
         {Fraction(1, 4), Fraction(1, 8), Fraction(1, 20)}) {
      const Solved solved = solve_and_check(inst, eps);
      const Approx54Result& result = solved.result;
      const Bisection& search = solved.pipeline;
      const VerticalFillResult fill =
          search.accepted ? search.accepted->fill : VerticalFillResult{};
      for (const Length start : result.packing.start) {
        checksum = mix(checksum, static_cast<std::uint64_t>(start));
      }
      checksum = mix(checksum, static_cast<std::uint64_t>(result.peak));
      checksum = mix(checksum, static_cast<std::uint64_t>(search.peak));
      checksum = mix(checksum, search.attempts);
      checksum = mix(checksum, fill.lp_solved ? 1 : 0);
      checksum = mix(checksum, fill.configurations);
      checksum = mix(checksum, fill.pricing_rounds);
      checksum = mix(checksum, fill.capped ? 1 : 0);
      checksum = mix(checksum, fill.overflow.size());
      lp_used += fill.lp_solved ? 1 : 0;
      multi_attempt += search.attempts > 1 ? 1 : 0;
      if (solved.certified && search.peak < result.peak) {
        ++certified_pipeline_lower;
        std::cout << "[certificate] " << family.name << " certified witness "
                  << result.peak << " above pipeline " << search.peak
                  << " at eps " << eps << ": " << inst.summary() << "\n";
      }
    }
  }
  EXPECT_GE(lp_used, family.min_lp_used);
  EXPECT_GE(multi_attempt, family.min_multi_attempt);
  EXPECT_LE(certified_pipeline_lower, family.max_certified_pipeline_lower);
  EXPECT_EQ(checksum, family.pin)
      << "lp_used " << lp_used << " multi_attempt " << multi_attempt;
}

INSTANTIATE_TEST_SUITE_P(
    Families, Solve54Pin,
    ::testing::Values(
        Solve54PinFamily{"uniform", 29001, 200, 0, 0, 0,
                         2415448745097680294ull},
        Solve54PinFamily{"tall", 29002, 1200, 20, 0, 1,
                         14045403025008284060ull},
        Solve54PinFamily{"wide", 29003, 200, 0, 0, 0,
                         6321870101629574891ull},
        Solve54PinFamily{"correlated", 29004, 200, 0, 0, 0,
                         17039095874240454806ull},
        Solve54PinFamily{"perfect", 29005, 200, 0, 10, 0,
                         14698781499667605960ull},
        Solve54PinFamily{"smart_grid", 29006, 200, 0, 0, 0,
                         15556848410267577370ull},
        Solve54PinFamily{"small_uniform", 29007, 1500, 0, 10, 1,
                         15606562963997019019ull},
        Solve54PinFamily{"small_tall", 29008, 1500, 0, 10, 0,
                         11084143156406489610ull}),
    [](const ::testing::TestParamInfo<Solve54PinFamily>& info) {
      return std::string(info.param.name);
    });

TEST(Solve54, SoundOnRandomInstances) {
  Rng rng(1234);
  for (int round = 0; round < 3; ++round) {
    const Instance inst = gen::random_uniform(48, 64, 24, 12, rng);
    const Approx54Result result = solve54(inst);
    validate_packing(inst, result.packing);
    EXPECT_EQ(peak_height(inst, result.packing), result.peak);
    // Never worse than the witness, never below the floor.
    EXPECT_LE(result.peak, result.report.upper_bound);
    EXPECT_GE(result.peak, result.report.lower_bound);
    if (const Bisection search = pipeline_of(inst, result); search.accepted) {
      EXPECT_GE(search.accepted->cls.h_guess, result.report.lower_bound);
      EXPECT_LE(search.accepted->cls.h_guess, result.report.upper_bound);
    }
  }
}

TEST(Solve54, AttemptsStayWithinThePlainBisectionDepth) {
  // No attempt when the witness is certified; otherwise the floor probe,
  // then bisection over the remaining (LB, UB]: at most
  // 1 + bit_width(UB - LB) attempts, one per round.  bisect itself keeps
  // the same depth on every instance.  The adversarial instances keep the
  // uncertified path covered.
  std::vector<std::pair<Instance, Fraction>> solves;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    solves.emplace_back(golden.instance, Approx54Params{}.epsilon);
  }
  Rng rng(1235);
  for (int round = 0; round < 4; ++round) {
    solves.emplace_back(gen::random_uniform(40, 96, 32, 16, rng),
                        Approx54Params{}.epsilon);
  }
  for (AdversarialSolve& adversarial : adversarial_solves()) {
    solves.emplace_back(std::move(adversarial.instance), adversarial.epsilon);
  }
  std::size_t searched = 0;
  for (const auto& [inst, eps] : solves) {
    const Approx54Result result = solve54(inst, {.epsilon = eps});
    const Approx54Report& report = result.report;
    ASSERT_GE(report.upper_bound, report.lower_bound) << inst.summary();
    const auto gap =
        static_cast<std::uint64_t>(report.upper_bound - report.lower_bound);
    const bool certified =
        theorem5::certified(report.lower_bound, report.upper_bound, eps);
    EXPECT_EQ(report.attempts == 0, certified) << inst.summary();
    if (!certified) {
      ++searched;
      EXPECT_GE(report.attempts, 1u);
      EXPECT_LE(report.attempts, 1u + std::bit_width(gap)) << inst.summary();
    }
    EXPECT_EQ(report.rounds, report.attempts);
    const Bisection search =
        bisect(inst, report.lower_bound, report.upper_bound, eps);
    EXPECT_GE(search.attempts, 1u);
    EXPECT_LE(search.attempts, 1u + std::bit_width(gap)) << inst.summary();
  }
  EXPECT_EQ(searched, 11u);  // adversarial row 1 x 3 eps, rows 2-5 x 2 eps
}

TEST(Solve54, NeverWorseThanWitness) {
  Rng rng(24);
  for (int round = 0; round < 8; ++round) {
    const Instance inst = gen::smart_grid(40, 96, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
  }
}

class Solve54Families : public ::testing::TestWithParam<int> {};

TEST_P(Solve54Families, FeasibleAndWithinRatioOfLowerBound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  Instance inst = [&] {
    switch (GetParam() % 4) {
      case 0:
        return gen::random_uniform(50, 100, 50, 20, rng);
      case 1:
        return gen::tall_items(40, 100, 40, rng);
      case 2:
        return gen::wide_items(30, 100, 10, rng);
      default:
        return gen::perfect_packing(50, 100, 30, rng);
    }
  }();
  const Approx54Result result = solve54(inst);
  ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
  // Empirical guarantee vs the lower bound: 5/4 + eps + rounding slack.
  // (The witness portfolio alone already guarantees a small constant; the
  // pipeline must not regress beyond the documented bound.)
  const Height lb = combined_lower_bound(inst);
  EXPECT_LE(result.peak, 2 * lb + inst.max_height()) << inst.summary();
}

INSTANTIATE_TEST_SUITE_P(Families, Solve54Families, ::testing::Range(0, 16));

TEST(Solve54, EpsilonSweepIsMonotoneInBudgetNotWorseThanWitness) {
  Rng rng(25);
  const Instance inst = gen::random_uniform(60, 120, 60, 30, rng);
  for (const Fraction eps : {Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)}) {
    Approx54Params params;
    params.epsilon = eps;
    const Approx54Result result = solve54(inst, params);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
  }
}

}  // namespace
}  // namespace dsp::approx
