#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "approx/config_lp.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "gen/config_scenarios.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "util/prng.hpp"

namespace dsp::approx {
namespace {

using Scenario = gen::ConfigLpScenario;

/// Random vertical items over a few height classes plus a box set able to
/// hold them (the same generator the E11 bench sweeps — see
/// gen/config_scenarios.hpp).
Scenario random_scenario(Rng& rng, int max_classes = 5) {
  gen::ConfigLpScenarioParams params;
  params.classes = static_cast<int>(rng.uniform(2, max_classes));
  return gen::config_lp_scenario(params, rng);
}

VerticalFillResult run_engine(const Scenario& scenario, ConfigLpEngine engine,
                              std::size_t max_configs = 4096,
                              std::size_t max_rounds = 64) {
  VerticalFillParams params;
  params.engine = engine;
  params.max_configs = max_configs;
  params.max_pricing_rounds = max_rounds;
  return fill_vertical_items(scenario.instance, scenario.indices,
                             scenario.rounding, scenario.boxes, params);
}

/// Placed/overflow must partition the items, with placed starts in-strip.
void check_partition(const Scenario& scenario, const VerticalFillResult& fill) {
  std::vector<bool> overflowed(scenario.indices.size(), false);
  for (const std::size_t k : fill.overflow) {
    ASSERT_LT(k, scenario.indices.size());
    EXPECT_FALSE(overflowed[k]) << "item " << k << " overflowed twice";
    overflowed[k] = true;
  }
  for (std::size_t k = 0; k < scenario.indices.size(); ++k) {
    if (overflowed[k]) {
      EXPECT_EQ(fill.start[k], -1);
      continue;
    }
    ASSERT_GE(fill.start[k], 0) << "item " << k << " neither placed nor "
                                << "overflowed";
    const Length w = scenario.instance.item(scenario.indices[k]).width;
    EXPECT_LE(fill.start[k] + w, scenario.instance.strip_width());
  }
}

TEST(ConfigLpEngines, ColumnGenerationMatchesDenseOnRandomScenarios) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    const Scenario scenario = random_scenario(rng);
    const VerticalFillResult dense =
        run_engine(scenario, ConfigLpEngine::kDenseEnumeration);
    const VerticalFillResult cg =
        run_engine(scenario, ConfigLpEngine::kColumnGeneration);
    // The acceptance contract: column generation never falls back where the
    // dense oracle succeeded, and reaches an objective no worse.
    if (dense.lp_solved) {
      ASSERT_TRUE(cg.lp_solved) << "round " << round;
      EXPECT_LE(cg.lp_objective,
                dense.lp_objective + 1e-6 * (1.0 + std::abs(dense.lp_objective)))
          << "round " << round;
      // The objective is in fact constant over the feasible region (see
      // DESIGN.md), so the optima agree exactly up to roundoff.
      EXPECT_NEAR(cg.lp_objective, dense.lp_objective,
                  1e-6 * (1.0 + std::abs(dense.lp_objective)))
          << "round " << round;
    }
    if (cg.lp_solved) {
      EXPECT_GE(cg.pricing_rounds, 1u);
      // Basic solution: support bounded by the number of LP rows
      // (|B| boxes + |H| *distinct* height classes).
      std::vector<Height> heights = scenario.rounding.rounded;
      std::sort(heights.begin(), heights.end());
      const auto distinct = static_cast<std::size_t>(
          std::unique(heights.begin(), heights.end()) - heights.begin());
      EXPECT_LE(cg.nonzero_configs, scenario.boxes.size() + distinct);
      check_partition(scenario, cg);
    }
    if (dense.lp_solved) check_partition(scenario, dense);
  }
}

/// Folds one value into a running checksum (bench_parallel_scaling's mix).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Every observable field of one fill, folded in a fixed order.
std::uint64_t fold_fill(std::uint64_t h, const VerticalFillResult& fill) {
  for (const Length start : fill.start) {
    h = mix(h, static_cast<std::uint64_t>(start));
  }
  h = mix(h, fill.overflow.size());
  for (const std::size_t k : fill.overflow) h = mix(h, k);
  h = mix(h, fill.configurations);
  h = mix(h, fill.nonzero_configs);
  h = mix(h, fill.pricing_rounds);
  h = mix(h, fill.lp_pivots);
  h = mix(h, fill.capped ? 1 : 0);
  h = mix(h, fill.lp_solved ? 1 : 0);
  return mix(h, std::bit_cast<std::uint64_t>(fill.lp_objective));
}

struct FillPinCase {
  const char* name;
  ConfigLpEngine engine;
  std::size_t max_configs;
  int width_scale;  ///< gen::ConfigLpScenarioParams::width_scale
  std::uint64_t pin;
};

void PrintTo(const FillPinCase& pin_case, std::ostream* os) {
  *os << pin_case.name;
}

class FillVerticalItemsPin : public ::testing::TestWithParam<FillPinCase> {};

TEST_P(FillVerticalItemsPin, ChecksumIsPinned) {
  // 400 random scenarios per engine x column cap x box-width regime: every
  // start, overflow index, count, valve flag and the LP objective's bits.
  // A cap of 12 trims dense enumeration and stops column generation early,
  // so the capped paths are pinned too.  Re-record only for a deliberate
  // change to the Lemma-10 LP.
  const FillPinCase& pin_case = GetParam();
  Rng rng(2029);
  std::uint64_t checksum = 0;
  std::size_t solved = 0;
  std::size_t capped = 0;
  for (int round = 0; round < 400; ++round) {
    gen::ConfigLpScenarioParams scenario_params;
    scenario_params.classes = static_cast<int>(rng.uniform(2, 6));
    scenario_params.width_scale = pin_case.width_scale;
    const Scenario scenario = gen::config_lp_scenario(scenario_params, rng);
    const VerticalFillResult fill =
        run_engine(scenario, pin_case.engine, pin_case.max_configs);
    checksum = fold_fill(checksum, fill);
    solved += fill.lp_solved ? 1 : 0;
    capped += fill.capped ? 1 : 0;
  }
  EXPECT_GT(solved, 0u);
  if (pin_case.max_configs < 4096) {
    EXPECT_GT(capped, 0u);
  }
  EXPECT_EQ(checksum, pin_case.pin) << "solved " << solved << " capped "
                                    << capped;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FillVerticalItemsPin,
    ::testing::Values(
        FillPinCase{"dense_cap4096_w1", ConfigLpEngine::kDenseEnumeration,
                    4096, 1, 12725415962357379161ull},
        FillPinCase{"dense_cap4096_w4", ConfigLpEngine::kDenseEnumeration,
                    4096, 4, 1640898142207535969ull},
        FillPinCase{"dense_cap12_w1", ConfigLpEngine::kDenseEnumeration, 12,
                    1, 6587468475451223552ull},
        FillPinCase{"dense_cap12_w4", ConfigLpEngine::kDenseEnumeration, 12,
                    4, 17735594167278076000ull},
        FillPinCase{"cg_cap4096_w1", ConfigLpEngine::kColumnGeneration, 4096,
                    1, 16469854302796261745ull},
        FillPinCase{"cg_cap4096_w4", ConfigLpEngine::kColumnGeneration, 4096,
                    4, 16708398000006034277ull},
        FillPinCase{"cg_cap12_w1", ConfigLpEngine::kColumnGeneration, 12, 1,
                    14987168527299361630ull},
        FillPinCase{"cg_cap12_w4", ConfigLpEngine::kColumnGeneration, 12, 4,
                    4361269976311552050ull}),
    [](const ::testing::TestParamInfo<FillPinCase>& info) {
      return std::string(info.param.name);
    });

TEST(ConfigLpEngines, ColumnGenerationSurvivesTheDenseCapCliff) {
  // Eight height classes, one unit-width item each, one box: the only
  // useful configurations are sparse mixes, but dense enumeration explores
  // densest stacks first, so a 16-column cap trims away the needed columns
  // and the LP goes spuriously infeasible.  Column generation prices
  // exactly the columns it needs under the *same* cap.
  const std::vector<Height> heights = {3, 5, 7, 11, 13, 17, 19, 23};
  std::vector<Item> items;
  for (const Height h : heights) items.push_back(Item{1, h});
  Scenario scenario{Instance(8, items), {}, {}, {GapBox{0, 8, 100}}};
  scenario.indices.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) scenario.indices[i] = i;
  for (const Item& it : items) scenario.rounding.rounded.push_back(it.height);
  scenario.rounding.grid.assign(items.size(), 1);

  const VerticalFillResult dense =
      run_engine(scenario, ConfigLpEngine::kDenseEnumeration, 16);
  EXPECT_TRUE(dense.capped);
  EXPECT_FALSE(dense.lp_solved) << "the cap cliff this test relies on is "
                                   "gone; pick a harder scenario";
  const VerticalFillResult cg =
      run_engine(scenario, ConfigLpEngine::kColumnGeneration, 16);
  EXPECT_TRUE(cg.lp_solved);
  EXPECT_FALSE(cg.capped);
  // The basic solution may be fractional (overflow items are fine — Lemma
  // 10 allows up to 7(|H|+|B|) of them); what matters is that the LP is
  // solved rather than spuriously infeasible.
  EXPECT_LE(cg.overflow.size(), 7 * (scenario.rounding.rounded.size() +
                                     scenario.boxes.size()));
  check_partition(scenario, cg);
}

TEST(ConfigLpEngines, EmptyItemsAndEmptyBoxes) {
  Rng rng(303);
  const Scenario base = random_scenario(rng);
  for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                      ConfigLpEngine::kColumnGeneration}) {
    VerticalFillParams params;
    params.engine = engine;
    const VerticalFillResult no_items = fill_vertical_items(
        base.instance, {}, base.rounding, base.boxes, params);
    EXPECT_TRUE(no_items.lp_solved);
    EXPECT_TRUE(no_items.overflow.empty());
    EXPECT_EQ(no_items.configurations, 0u);

    const VerticalFillResult no_boxes = fill_vertical_items(
        base.instance, base.indices, base.rounding, {}, params);
    EXPECT_FALSE(no_boxes.lp_solved);
    EXPECT_EQ(no_boxes.overflow.size(), base.indices.size());
  }
}

TEST(ConfigLpEngines, ZeroWidthBoxesAreHarmless) {
  // Ten 1x4 items; a zero-width box cannot host anything but must not break
  // either engine (its width-0 row is satisfied by the empty configuration).
  std::vector<Item> items(10, Item{1, 4});
  Scenario scenario{Instance(5, items),
                    {},
                    {},
                    {GapBox{0, 0, 9}, GapBox{0, 5, 8}}};
  scenario.indices.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) scenario.indices[i] = i;
  scenario.rounding.rounded.assign(10, 4);
  scenario.rounding.grid.assign(10, 1);
  for (const ConfigLpEngine engine : {ConfigLpEngine::kDenseEnumeration,
                                      ConfigLpEngine::kColumnGeneration}) {
    const VerticalFillResult fill = run_engine(scenario, engine);
    EXPECT_TRUE(fill.lp_solved);
    EXPECT_TRUE(fill.overflow.empty());
    check_partition(scenario, fill);
  }
}

TEST(ConfigLpEngines, SafetyValveSetsCappedInsteadOfLooping) {
  Rng rng(404);
  const Scenario scenario = random_scenario(rng);
  const VerticalFillResult one_round = run_engine(
      scenario, ConfigLpEngine::kColumnGeneration, 4096, 1);
  // One pricing round cannot reach convergence on a non-trivial scenario:
  // the valve must report it rather than silently continuing.
  EXPECT_TRUE(one_round.capped);
  EXPECT_EQ(one_round.pricing_rounds, 1u);
}

TEST(Solve54Engines, BothEnginesProduceFeasiblePackings) {
  // solve54 runs the column-generation engine; the dense-enumeration
  // reference is cross-checked against it per scenario (ConfigLpEngines.*).
  Rng rng(505);
  // Narrow items on a wide strip: the regime where the V category (and
  // hence the Lemma-10 LP) is actually populated.
  bool any_lp_used = false;
  for (int round = 0; round < 4; ++round) {
    const Instance inst = gen::random_uniform(50, 240, 4, 24, rng);
    const Approx54Result result = solve54(inst);
    ASSERT_EQ(feasibility_error(inst, result.packing), std::nullopt);
    EXPECT_LE(result.peak, result.report.upper_bound);
    // The pipeline's search, whether or not solve54 needed it: the LP
    // counters are read from its accepted attempt.  The report mirrors
    // lp_used and lp_pricing_rounds whenever solve54 searched.
    const Bisection search =
        bisect(inst, result.report.lower_bound, result.report.upper_bound,
               Approx54Params{}.epsilon);
    const VerticalFillResult fill =
        search.accepted ? search.accepted->fill : VerticalFillResult{};
    if (result.report.attempts > 0) {
      EXPECT_EQ(result.report.lp_used, fill.lp_solved);
      EXPECT_EQ(result.report.lp_pricing_rounds, fill.pricing_rounds);
    }
    if (fill.lp_solved) {
      any_lp_used = true;
      // The new diagnostics must actually be plumbed through the fill.
      EXPECT_GE(fill.pricing_rounds, 1u);
      EXPECT_GE(fill.configurations, 1u);
    }
  }
  EXPECT_TRUE(any_lp_used) << "no round exercised the configuration LP; "
                              "the generator no longer produces V items";
}

TEST(Solve54Engines, ConcurrentCallersAreBitIdentical) {
  // Batch worker threads and daemon connections call solve54 from many
  // threads at once; each call owns its profiles and LP state, so
  // concurrent calls share no mutable state (this is the place TSan sees
  // it).
  Rng rng(808);
  const Instance inst = gen::random_uniform(50, 240, 4, 24, rng);
  // Each caller solves, then runs the pipeline's search on its bounds; the
  // accepted attempt is compared through bisect.
  struct Call {
    Approx54Result result;
    Bisection search;
  };
  const auto call = [&inst] {
    Call made{solve54(inst), {}};
    made.search = bisect(inst, made.result.report.lower_bound,
                         made.result.report.upper_bound,
                         Approx54Params{}.epsilon);
    return made;
  };
  const Call reference = call();
  ASSERT_TRUE(reference.search.accepted.has_value());
  const Attempt& accepted = *reference.search.accepted;
  std::vector<Call> calls(4);
  std::vector<std::thread> callers;
  for (Call& slot : calls) {
    callers.emplace_back([&call, &slot] { slot = call(); });
  }
  for (std::thread& caller : callers) caller.join();
  for (const Call& made : calls) {
    EXPECT_EQ(made.result.packing.start, reference.result.packing.start);
    EXPECT_EQ(made.result.peak, reference.result.peak);
    EXPECT_EQ(made.result.report.attempts, reference.result.report.attempts);
    ASSERT_TRUE(made.search.accepted.has_value());
    EXPECT_EQ(made.search.accepted->cls.h_guess, accepted.cls.h_guess);
    EXPECT_EQ(made.search.accepted->fill.configurations,
              accepted.fill.configurations);
  }
}

}  // namespace
}  // namespace dsp::approx
