#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/portfolio.hpp"
#include "core/bounds.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "gen/smart_grid.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "solve_cold_cells.hpp"

namespace dsp {
namespace {

TEST(GreedyLowestPeak, SpreadsLoad) {
  // Three 1x1 items on a width-3 strip: peak must be 1.
  const Instance inst(3, {{1, 1}, {1, 1}, {1, 1}});
  const algo::Scored greedy = algo::greedy_lowest_peak(inst);
  EXPECT_EQ(peak_height(inst, greedy.packing), 1);
  EXPECT_EQ(greedy.peak, 1);
}

TEST(GreedyLowestPeak, HandlesFullWidthItems) {
  const Instance inst(4, {{4, 2}, {4, 3}});
  const algo::Scored greedy = algo::greedy_lowest_peak(inst);
  EXPECT_EQ(peak_height(inst, greedy.packing), 5);
  EXPECT_EQ(greedy.peak, 5);
}

TEST(FirstFitWithBudget, RespectsBudget) {
  const Instance inst(4, {{2, 2}, {2, 2}, {2, 2}});
  const auto ok = algo::first_fit_with_budget(inst, 4);
  ASSERT_TRUE(ok.has_value());
  EXPECT_LE(peak_height(inst, ok->packing), 4);
  EXPECT_EQ(ok->peak, peak_height(inst, ok->packing));
  // Budget 2 fits only two of the three side by side.
  EXPECT_FALSE(algo::first_fit_with_budget(inst, 2).has_value());
}

TEST(FirstFitSearch, FindsMinimalFeasibleBudgetOnEasyCase) {
  const Instance inst(4, {{2, 2}, {2, 2}, {4, 1}});
  const algo::Scored search = algo::first_fit_search(
      inst, combined_lower_bound(inst), algo::greedy_lowest_peak(inst));
  EXPECT_EQ(peak_height(inst, search.packing), 3);
  EXPECT_EQ(search.peak, 3);
}

TEST(EqualWidthFolding, RequiresUniformWidths) {
  const Instance bad(4, {{2, 1}, {1, 1}});
  EXPECT_THROW(algo::equal_width_folding(bad), InvalidInput);
}

TEST(EqualWidthFolding, BalancesColumns) {
  // Four width-2 items on W=4 -> two columns, LPT balancing.
  const Instance inst(4, {{2, 5}, {2, 4}, {2, 3}, {2, 2}});
  const Packing packing = algo::equal_width_folding(inst);
  EXPECT_EQ(peak_height(inst, packing), 7);  // {5,2} vs {4,3}
}

TEST(Portfolio, ReturnsBestOfAllBaselines) {
  Rng rng(5);
  const Instance inst = gen::random_uniform(20, 30, 15, 8, rng);
  std::string winner;
  const Packing best = algo::best_of_portfolio(inst, &winner);
  const Height best_peak = peak_height(inst, best);
  EXPECT_FALSE(winner.empty());
  for (const auto& algorithm : algo::baseline_portfolio()) {
    EXPECT_LE(best_peak, peak_height(inst, algorithm.run(inst)))
        << algorithm.name;
  }
}

struct FamilyCase {
  const char* name;
  Instance (*make)(Rng&);
};

void PrintTo(const FamilyCase& family, std::ostream* os) { *os << family.name; }

Instance make_uniform(Rng& rng) {
  return gen::random_uniform(static_cast<std::size_t>(rng.uniform(1, 40)), 24,
                             24, 10, rng);
}
Instance make_tall(Rng& rng) {
  return gen::tall_items(static_cast<std::size_t>(rng.uniform(1, 30)), 24, 12,
                         rng);
}
Instance make_wide(Rng& rng) {
  return gen::wide_items(static_cast<std::size_t>(rng.uniform(1, 30)), 24, 6,
                         rng);
}
Instance make_perfect(Rng& rng) {
  return gen::perfect_packing(static_cast<std::size_t>(rng.uniform(2, 30)), 24,
                              12, rng);
}

class BaselineProperties
    : public ::testing::TestWithParam<std::tuple<FamilyCase, int>> {};

// Property: every baseline returns a feasible packing whose peak is between
// the combined lower bound and a loose multiple of it.
TEST_P(BaselineProperties, FeasibleAndSane) {
  const auto& [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Instance inst = family.make(rng);
  const Height lb = combined_lower_bound(inst);
  for (const auto& algorithm : algo::baseline_portfolio()) {
    const Packing packing = algorithm.run(inst);
    ASSERT_EQ(feasibility_error(inst, packing), std::nullopt)
        << family.name << "/" << algorithm.name;
    const Height peak = peak_height(inst, packing);
    EXPECT_GE(peak, lb) << family.name << "/" << algorithm.name;
    EXPECT_LE(peak, 5 * lb) << family.name << "/" << algorithm.name << " "
                            << inst.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BaselineProperties,
    ::testing::Combine(::testing::Values(FamilyCase{"uniform", make_uniform},
                                         FamilyCase{"tall", make_tall},
                                         FamilyCase{"wide", make_wide},
                                         FamilyCase{"perfect", make_perfect}),
                       ::testing::Range(0, 15)));

// On the perfect-packing family the area bound equals OPT; the portfolio
// should stay within a small constant of it.
TEST(Portfolio, NearOptimalOnPerfectFamily) {
  Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    const Instance inst = gen::perfect_packing(25, 40, 20, rng);
    const Packing best = algo::best_of_portfolio(inst);
    EXPECT_LE(peak_height(inst, best), 2 * 20) << inst.summary();
  }
}


/// Small draws of every family the portfolio serves, golden corpus included.
std::vector<Instance> family_draws() {
  std::vector<Instance> instances;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  Rng rng(2718);
  for (int round = 0; round < 40; ++round) {
    instances.push_back(gen::random_uniform(40, 64, 24, 12, rng));
    instances.push_back(gen::tall_items(24, 48, 16, rng));
    instances.push_back(gen::wide_items(20, 48, 8, rng));
    instances.push_back(gen::perfect_packing(30, 48, 20, rng));
    instances.push_back(gen::correlated(30, 64, 24, 12, rng));
    instances.push_back(gen::smart_grid(30, 96, rng));
    instances.push_back(gen::planted_yes(3, 24, rng).instance);
    instances.push_back(gen::sampled_no(3, 24, rng).instance);
  }
  instances.push_back(gen::gap_instance());
  instances.push_back(gen::gap_instance_replicated(2));
  // Lower bound 4: greedy-h peaks at 5, greedy-area at 4.
  instances.push_back(Instance(6, {{6, 1}, {4, 1}, {3, 1}, {1, 2}, {3, 2}}));
  return instances;
}

TEST(Portfolio, EarlyExitMatchesRunningEveryMember) {
  // Reference: every member runs, the leftmost strict minimum wins.
  bool exits_early = false;    // the bound is met before the last member
  bool misses_bound = false;   // no member meets the bound
  bool closes_gap_one = false; // a later member goes from lb + 1 to lb
  bool seeded_wins = false;    // the seeded member decides the answer
  for (const Instance& inst : family_draws()) {
    const Height lb = combined_lower_bound(inst);
    const std::vector<algo::NamedAlgorithm> members =
        algo::baseline_portfolio();
    Packing expected;
    Height expected_peak = 0;
    std::string expected_winner;
    std::size_t first_at_lb = members.size();
    for (std::size_t m = 0; m < members.size(); ++m) {
      Packing packing = members[m].run(inst);
      const Height peak = peak_height(inst, packing);
      if (m == 0 || peak < expected_peak) {
        closes_gap_one |= m > 0 && expected_peak == lb + 1 && peak <= lb;
        expected = std::move(packing);
        expected_peak = peak;
        expected_winner = members[m].name;
      }
      if (expected_peak <= lb && first_at_lb == members.size()) {
        first_at_lb = m;
      }
    }
    exits_early |= first_at_lb + 1 < members.size();
    misses_bound |= expected_peak > lb;
    seeded_wins |= expected_winner == "first-fit";
    std::string winner;
    EXPECT_EQ(algo::best_of_portfolio(inst, &winner), expected)
        << inst.summary();
    EXPECT_EQ(winner, expected_winner) << inst.summary();
  }
  // Every branch of the early exit and of the hand-off is exercised.
  EXPECT_TRUE(exits_early);
  EXPECT_TRUE(misses_bound);
  EXPECT_TRUE(closes_gap_one);
  EXPECT_TRUE(seeded_wins);
}

TEST(Portfolio, SeededMembersReuseAnEarlierMember) {
  // The structural hand-off: first-fit is the one member that reads an
  // earlier result, and the result it reads is greedy-h's, which runs
  // before it.  Every other member ignores what it is handed.
  Rng rng(31);
  const Instance inst = gen::random_uniform(40, 64, 24, 12, rng);
  const Height lb = combined_lower_bound(inst);
  const std::vector<algo::NamedAlgorithm> members = algo::baseline_portfolio();
  std::vector<algo::Scored> earlier;
  for (const algo::NamedAlgorithm& member : members) {
    earlier.push_back(member.run_scored(inst, lb, earlier));
  }
  // A stand-in for greedy-h's result that claims the lower bound: a member
  // seeded by it returns it unchanged, no budget search being left to run.
  const algo::Scored stand_in{Packing{std::vector<Length>(inst.size(), 0)},
                              lb};
  ASSERT_NE(earlier[0], stand_in);
  std::vector<std::string> seeded;
  for (std::size_t m = 1; m < members.size(); ++m) {
    std::vector<algo::Scored> handed(earlier.begin(), earlier.begin() + m);
    handed[0] = stand_in;
    const algo::Scored result = members[m].run_scored(inst, lb, handed);
    if (result == earlier[m]) continue;
    seeded.push_back(members[m].name);
    EXPECT_EQ(result, stand_in) << members[m].name;
  }
  EXPECT_EQ(members[0].name, "greedy-h");
  EXPECT_EQ(seeded, std::vector<std::string>{"first-fit"});
}

TEST(Portfolio, ReportedPeaksAreTruePeaks) {
  // Each member's reported peak, and the portfolio's, is peak_height of the
  // packing it comes with.  The golden corpus, the solve-cold cells, the
  // solve-wide shapes and strips of width 1 and 2^20: peak_height scores
  // by columns where W <= 16 n and by an edge sweep on the wider strips.
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
  instances.push_back(Instance(1, {{1, 3}, {1, 1}, {1, 4}}));
  Rng rng(20);
  instances.push_back(gen::random_uniform(40, Length{1} << 20,
                                          Length{1} << 18, 100, rng));
  const std::vector<algo::NamedAlgorithm> members = algo::baseline_portfolio();
  bool by_columns = false;
  bool by_edges = false;
  for (const Instance& inst : instances) {
    const Height lb = combined_lower_bound(inst);
    std::vector<algo::Scored> earlier;
    for (const algo::NamedAlgorithm& member : members) {
      algo::Scored result = member.run_scored(inst, lb, earlier);
      EXPECT_EQ(result.peak, peak_height(inst, result.packing))
          << member.name << " " << inst.summary();
      EXPECT_EQ(result.packing, member.run(inst))
          << member.name << " " << inst.summary();
      earlier.push_back(std::move(result));
    }
    const algo::Scored best = algo::best_of_portfolio(inst, lb);
    EXPECT_EQ(best.peak, peak_height(inst, best.packing)) << inst.summary();
    EXPECT_EQ(best.packing, algo::best_of_portfolio(inst)) << inst.summary();
    const bool columns =
        inst.strip_width() <= 16 * static_cast<Length>(inst.size());
    by_columns |= columns;
    by_edges |= !columns;
  }
  EXPECT_TRUE(by_columns);
  EXPECT_TRUE(by_edges);
}

TEST(Portfolio, FirstFitHandedNothingMatchesHandedGreedyH) {
  // Standalone, first-fit runs greedy-h itself: handed no earlier results
  // it returns exactly what it returns when handed greedy-h's.
  const std::vector<algo::NamedAlgorithm> members = algo::baseline_portfolio();
  ASSERT_EQ(members[0].name, "greedy-h");
  ASSERT_EQ(members[3].name, "first-fit");
  Rng rng(77);
  for (int round = 0; round < 12; ++round) {
    const Instance inst =
        round % 2 == 0 ? gen::random_uniform(30, 256, 64, 40, rng)
                       : gen::correlated(30, 256, 64, 40, rng);
    const Height lb = combined_lower_bound(inst);
    const std::vector<algo::Scored> greedy_h{
        members[0].run_scored(inst, lb, {})};
    EXPECT_EQ(members[3].run_scored(inst, lb, {}),
              members[3].run_scored(inst, lb, greedy_h))
        << inst.summary();
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

/// One draw of a solve-cold family, shaped as the end-to-end benchmark
/// draws it.
Instance solve_family_instance(const std::string& family, std::size_t n,
                               Length w, Rng& rng) {
  if (family == "uniform") return gen::random_uniform(n, w, w / 4, 100, rng);
  if (family == "tall") return gen::tall_items(n, w, 100, rng);
  if (family == "wide") return gen::wide_items(n, w, 20, rng);
  if (family == "perfect") return gen::perfect_packing(n, w, 200, rng);
  if (family == "correlated") return gen::correlated(n, w, w / 4, 100, rng);
  return gen::smart_grid(n, w, rng);
}

struct ScaleCase {
  std::string label;
  Instance instance;
};

/// Benchmark-scale instances, far beyond the golden corpus (W <= 96): the
/// six solve families at n in {100, 400} x W in {256, 2048}, a week at
/// minute resolution and a 2^16-column uniform strip.
std::vector<ScaleCase> benchmark_scale_cases() {
  std::vector<ScaleCase> cases;
  std::uint64_t seed = 9001;
  for (const std::string family :
       {"uniform", "tall", "wide", "perfect", "correlated", "smart-grid"}) {
    for (const std::size_t n : {100, 400}) {
      for (const Length w : {256, 2048}) {
        Rng rng(seed++);
        cases.push_back({family + "/" + std::to_string(n) + "/" +
                             std::to_string(w),
                         solve_family_instance(family, n, w, rng)});
      }
    }
  }
  Rng week_rng(seed++);
  cases.push_back({"smart-grid-week/100/10080",
                   gen::smart_grid(100, 10080, week_rng,
                                   testing_cells::minute_catalog())});
  Rng wide_rng(seed++);
  cases.push_back({"uniform/60/65536",
                   gen::random_uniform(60, 65536, 16384, 100, wide_rng)});
  return cases;
}

TEST(Portfolio, PackingsMatchRecordedFingerprints) {
  // Answers recorded before the early exit and the seeded first-fit: a
  // change that moves a single start, the peak or the winner fails here.
  // Re-record only for a deliberate change.
  struct Expected {
    const char* label;
    Height peak;
    const char* winner;
    std::uint64_t fingerprint;
  };
  static constexpr Expected kExpected[] = {
      {"uniform/100/256", 670, "greedy-area", 0xcdbb6b8b8d3dcc99ull},
      {"uniform/100/2048", 708, "greedy-h", 0x30c0443df71ba03cull},
      {"uniform/400/256", 2417, "greedy-h", 0xdb22d60280cacf28ull},
      {"uniform/400/2048", 2756, "greedy-area", 0xb5e3b4f9e8fc5a48ull},
      {"tall/100/256", 919, "ffdh", 0x650894e0ba277b50ull},
      {"tall/100/2048", 1090, "ffdh", 0x471092571cba9f69ull},
      {"tall/400/256", 3728, "greedy-area", 0x8c19e1e2a2eb28b1ull},
      {"tall/400/2048", 3776, "greedy-area", 0x5cd8b3566abf397bull},
      {"wide/100/256", 1122, "greedy-h", 0x6494cc221d5e7db3ull},
      {"wide/100/2048", 942, "greedy-h", 0x6494cc221d5e7db3ull},
      {"wide/400/256", 4015, "greedy-h", 0x18e1185d7cd2e7c3ull},
      {"wide/400/2048", 4295, "greedy-h", 0x5c2597ab80ad3e43ull},
      {"perfect/100/256", 214, "greedy-h", 0xa60622a15cda8f7cull},
      {"perfect/100/2048", 218, "greedy-h", 0x6f99f8d4f63f1135ull},
      {"perfect/400/256", 205, "greedy-h", 0xf3ee2887a539dd38ull},
      {"perfect/400/2048", 205, "greedy-h", 0xfa3a1e30072eea1bull},
      {"correlated/100/256", 654, "greedy-area", 0x27262e8a05a49ea0ull},
      {"correlated/100/2048", 753, "greedy-area", 0x864eddc750eb4f7aull},
      {"correlated/400/256", 2979, "greedy-area", 0x1c427bc87d51c1e3ull},
      {"correlated/400/2048", 3016, "greedy-area", 0xcc5a6ece7994fefdull},
      {"smart-grid/100/256", 117, "greedy-h", 0x3303c15a4910bd0cull},
      {"smart-grid/100/2048", 104, "greedy-h", 0x5651ff7aa2eaf376ull},
      {"smart-grid/400/256", 466, "greedy-h", 0x5527326d8e9d9bbdull},
      {"smart-grid/400/2048", 110, "greedy-h", 0x57b4edf7ce208663ull},
      {"smart-grid-week/100/10080", 110, "greedy-h", 0x3c2c0ddd388d62a9ull},
      {"uniform/60/65536", 385, "greedy-h", 0x6b7ecd5bb093b6cfull},
  };
  const std::vector<ScaleCase> cases = benchmark_scale_cases();
  ASSERT_EQ(cases.size(), std::size(kExpected));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ASSERT_EQ(cases[c].label, kExpected[c].label);
    std::string winner;
    const Packing packing = algo::best_of_portfolio(cases[c].instance, &winner);
    EXPECT_EQ(peak_height(cases[c].instance, packing), kExpected[c].peak)
        << cases[c].label;
    EXPECT_EQ(winner, kExpected[c].winner) << cases[c].label;
    EXPECT_EQ(fingerprint_of(packing), kExpected[c].fingerprint)
        << cases[c].label;
  }
}

}  // namespace
}  // namespace dsp
