#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <vector>

#include "core/bounds.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "sp/bottom_left.hpp"
#include "sp/shelf.hpp"
#include "sp/sleator.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

TEST(SpValidate, DetectsOverlapAndOutOfStrip) {
  const Instance inst(4, {{2, 2}, {2, 2}});
  EXPECT_TRUE(sp::validate(inst, sp::SpPacking{{{0, 0}, {1, 1}}}).has_value());
  EXPECT_TRUE(sp::validate(inst, sp::SpPacking{{{3, 0}, {0, 0}}}).has_value());
  EXPECT_EQ(sp::validate(inst, sp::SpPacking{{{0, 0}, {2, 0}}}), std::nullopt);
  EXPECT_EQ(sp::validate(inst, sp::SpPacking{{{0, 0}, {0, 2}}}), std::nullopt);
}

TEST(SpValidate, HeightAndDspAdapter) {
  const Instance inst(4, {{2, 2}, {2, 3}});
  const sp::SpPacking packing{{{0, 0}, {0, 2}}};
  EXPECT_EQ(sp::packing_height(inst, packing), 5);
  const Packing dsp_view = sp::as_dsp(packing);
  EXPECT_EQ(dsp_view.start, (std::vector<Length>{0, 0}));
  // The demand view can only be at most the SP height.
  EXPECT_LE(peak_height(inst, dsp_view), 5);
}

TEST(Nfdh, PacksSimpleShelves) {
  // Heights 3,3,2: first shelf holds both 3s, the 2 opens a new shelf.
  const Instance inst(4, {{2, 3}, {2, 3}, {3, 2}});
  const sp::SpPacking packing = sp::nfdh(inst);
  EXPECT_EQ(sp::validate(inst, packing), std::nullopt);
  EXPECT_EQ(sp::packing_height(inst, packing), 5);
}

TEST(Ffdh, ReusesEarlierShelves) {
  // FFDH puts the late narrow item back on shelf 0; NFDH cannot.
  const Instance inst(4, {{3, 5}, {2, 4}, {2, 4}, {1, 1}});
  const sp::SpPacking f = sp::ffdh(inst);
  EXPECT_EQ(sp::validate(inst, f), std::nullopt);
  EXPECT_EQ(sp::packing_height(inst, f), 9);
  const sp::SpPacking n = sp::nfdh(inst);
  EXPECT_EQ(sp::validate(inst, n), std::nullopt);
  EXPECT_EQ(sp::packing_height(inst, n), 10);
}

TEST(Sleator, WideItemsStackAtBottom) {
  const Instance inst(4, {{3, 2}, {4, 1}, {1, 1}});
  const sp::SpPacking packing = sp::sleator(inst);
  EXPECT_EQ(sp::validate(inst, packing), std::nullopt);
  // Wide items (w > 2): both; stacked height 3; the 1x1 sits on the level.
  EXPECT_EQ(sp::packing_height(inst, packing), 4);
}

TEST(BottomLeft, FillsValleys) {
  const Instance inst(4, {{2, 3}, {2, 1}, {2, 2}});
  const sp::SpPacking packing = sp::bottom_left(inst);
  EXPECT_EQ(sp::validate(inst, packing), std::nullopt);
  EXPECT_LE(sp::packing_height(inst, packing), 4);
}

/// Bottom-left by definition, on a plain column array: items by height
/// descending, then width descending, then index; each goes to the lowest,
/// then leftmost, skyline breakpoint (start 0 and every x with
/// roof[x-1] != roof[x]) at the column-wise roof over its span, and the roof
/// under it is lifted to its top.
sp::SpPacking reference_bottom_left(const Instance& inst) {
  const Length strip = inst.strip_width();
  std::vector<std::size_t> order(inst.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Item& ia = inst.item(a);
    const Item& ib = inst.item(b);
    if (ia.height != ib.height) return ia.height > ib.height;
    if (ia.width != ib.width) return ia.width > ib.width;
    return a < b;
  });
  std::vector<Height> roof(static_cast<std::size_t>(strip), 0);
  const auto column = [&](Length x) { return roof.begin() + x; };
  sp::SpPacking packing;
  packing.position.resize(inst.size());
  for (const std::size_t i : order) {
    const Item& it = inst.item(i);
    sp::SpPlacement best{0, *std::max_element(column(0), column(it.width))};
    for (Length x = 1; x + it.width <= strip; ++x) {
      if (*column(x - 1) == *column(x)) continue;
      const Height y = *std::max_element(column(x), column(x + it.width));
      if (y < best.y) best = {x, y};
    }
    packing.position[i] = best;
    std::fill(column(best.x), column(best.x + it.width), best.y + it.height);
  }
  return packing;
}

TEST(BottomLeft, MatchesBruteForceReference) {
  std::vector<Instance> instances;
  Rng rng(20261018);
  for (int round = 0; round < 30; ++round) {
    // Narrow strips (W <= 64), then wide ones (W > 16 n, long flat runs).
    const auto n = static_cast<std::size_t>(rng.uniform(1, 40));
    const Length narrow = rng.uniform(4, 64);
    const Length wide = rng.uniform(16 * static_cast<Length>(n) + 1, 1 << 16);
    for (const Length w : {narrow, wide}) {
      switch (round % 3) {
        case 0:
          instances.push_back(gen::random_uniform(
              n, w, rng.uniform(1, std::min<Length>(w, 4096)), 20, rng));
          break;
        case 1:
          instances.push_back(gen::tall_items(n, w, 20, rng));
          break;
        default:
          instances.push_back(gen::perfect_packing(n, w, 12, rng));
          break;
      }
    }
  }
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  for (const Instance& inst : instances) {
    const sp::SpPacking expected = reference_bottom_left(inst);
    EXPECT_EQ(sp::bottom_left(inst).position, expected.position)
        << inst.summary();
  }
}

struct SpAlgoCase {
  const char* name;
  sp::SpPacking (*run)(const Instance&);
};

void PrintTo(const SpAlgoCase& algo_case, std::ostream* os) {
  *os << algo_case.name;
}

class SpAlgorithms
    : public ::testing::TestWithParam<std::tuple<SpAlgoCase, int>> {};

// Property: every SP algorithm emits a valid packing, and (NFDH-style area
// bound) the height never exceeds 2*area/W + h_max for NFDH — looser sanity
// (4*LB + h_max) for the others.
TEST_P(SpAlgorithms, ValidAndBounded) {
  const auto& [algo_case, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Length w = rng.uniform(5, 40);
  const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 40));
  const Instance inst =
      gen::random_uniform(n, w, w, rng.uniform(1, 20), rng);
  const sp::SpPacking packing = algo_case.run(inst);
  ASSERT_EQ(sp::validate(inst, packing), std::nullopt) << algo_case.name;
  const Height height = sp::packing_height(inst, packing);
  const Height area_bound = area_lower_bound(inst);
  if (std::string(algo_case.name) == "nfdh") {
    EXPECT_LE(height, 2 * area_bound + inst.max_height()) << inst.summary();
  }
  EXPECT_LE(height, 4 * combined_lower_bound(inst) + inst.max_height())
      << algo_case.name << " " << inst.summary();
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SpAlgorithms,
    ::testing::Combine(
        ::testing::Values(SpAlgoCase{"nfdh", sp::nfdh},
                          SpAlgoCase{"ffdh", sp::ffdh},
                          SpAlgoCase{"sleator", sp::sleator},
                          SpAlgoCase{"bottom_left",
                                     [](const Instance& inst) {
                                       return sp::bottom_left(inst);
                                     }}),
        ::testing::Range(0, 25)));

// FFDH never does worse than NFDH (it only reuses shelf space).
TEST(ShelfComparison, FfdhAtMostNfdh) {
  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    const Length w = rng.uniform(5, 30);
    const Instance inst = gen::random_uniform(
        static_cast<std::size_t>(rng.uniform(1, 30)), w, w, 10, rng);
    EXPECT_LE(sp::packing_height(inst, sp::ffdh(inst)),
              sp::packing_height(inst, sp::nfdh(inst)))
        << inst.summary();
  }
}

}  // namespace
}  // namespace dsp
