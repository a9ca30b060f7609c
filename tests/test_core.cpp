#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bounds.hpp"
#include "core/instance.hpp"
#include "core/packing.hpp"
#include "core/profile.hpp"
#include "core/render.hpp"
#include "core/sliced.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

Instance small_instance() {
  // W=6: a 3x2, b 2x3, c 4x1, d 1x4
  return Instance(6, {{3, 2}, {2, 3}, {4, 1}, {1, 4}});
}

TEST(Instance, ValidatesOnConstruction) {
  EXPECT_THROW(Instance(0, {}), InvalidInput);
  EXPECT_THROW(Instance(5, {{6, 1}}), InvalidInput);
  EXPECT_THROW(Instance(5, {{0, 1}}), InvalidInput);
  EXPECT_THROW(Instance(5, {{1, 0}}), InvalidInput);
}

TEST(Instance, Aggregates) {
  const Instance inst = small_instance();
  EXPECT_EQ(inst.size(), 4u);
  EXPECT_EQ(inst.total_area(), 3 * 2 + 2 * 3 + 4 * 1 + 1 * 4);
  EXPECT_EQ(inst.max_height(), 4);
  EXPECT_EQ(inst.max_width(), 4);
}

TEST(LoadProfile, ComputesColumnLoadsAndPeak) {
  const Instance inst = small_instance();
  const Packing packing{{0, 3, 1, 5}};
  const LoadProfile profile(inst, packing);
  // Loads: x0: a=2 -> 2; x1,2: a+c=3; x3,4: b+c; x5: d=4
  EXPECT_EQ(profile.load_at(0), 2);
  EXPECT_EQ(profile.load_at(1), 3);
  EXPECT_EQ(profile.load_at(2), 3);
  EXPECT_EQ(profile.load_at(3), 4);
  EXPECT_EQ(profile.load_at(4), 4);
  EXPECT_EQ(profile.load_at(5), 4);
  EXPECT_EQ(profile.peak(), 4);
}

TEST(LoadProfile, RejectsOutOfStripPackings) {
  const Instance inst = small_instance();
  EXPECT_THROW(LoadProfile(inst, Packing{{4, 0, 0, 0}}), InvalidInput);
  EXPECT_THROW(LoadProfile(inst, Packing{{0, 0}}), InvalidInput);
  EXPECT_THROW(LoadProfile(inst, Packing{{-1, 0, 0, 0}}), InvalidInput);
}

TEST(PeakHeight, EdgeSweepMatchesColumnProfileOnWideStrips) {
  // W > 16 n: peak_height sweeps item edges instead of building columns.
  // Wide strips first, then narrow ones (W <= 16 n, column profile).
  // Items ending where others start must not stack.
  const Instance touching(1000, {{10, 5}, {10, 7}, {10, 2}});
  EXPECT_EQ(peak_height(touching, Packing{{0, 10, 20}}), 7);
  EXPECT_EQ(peak_height(touching, Packing{{0, 9, 19}}), 12);
  EXPECT_THROW((void)peak_height(touching, Packing{{0, 995, 0}}), InvalidInput);
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const Length w = rng.uniform(400, 5000);
    std::vector<Item> items;
    Packing packing;
    for (int i = 0; i < 20; ++i) {
      const Length width = rng.uniform(1, w / 3);
      items.push_back({width, rng.uniform(1, 30)});
      // Coarse starts make coinciding edges common.
      packing.start.push_back(rng.uniform(0, 8) * ((w - width) / 8));
    }
    const Instance inst(w, items);
    EXPECT_EQ(peak_height(inst, packing), LoadProfile(inst, packing).peak());
  }
  // Narrow strips (W <= 64, n in [4, 400], so W <= 16 n): peak_height scores
  // on the column profile.  Both branches must match a column-by-column
  // reference: the packing as given, and the same packing stretched by the
  // smallest power of two that makes W > 16 n (a horizontal stretch keeps
  // the peak), which peak_height scores by sweeping edges.
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(4, 400));
    const Length w = rng.uniform(1, 64);
    std::vector<Item> items;
    Packing packing;
    for (std::size_t i = 0; i < n; ++i) {
      const Length width = rng.uniform(1, w);
      items.push_back({width, rng.uniform(1, 30)});
      packing.start.push_back(rng.uniform(0, w - width));
    }
    Height reference = 0;
    for (Length x = 0; x < w; ++x) {
      Height load = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Length s = packing.start[i];
        if (s <= x && x < s + items[i].width) load += items[i].height;
      }
      reference = std::max(reference, load);
    }
    EXPECT_EQ(peak_height(Instance(w, items), packing), reference)
        << "W=" << w << " n=" << n;

    Length factor = 1;
    while (w * factor <= 16 * static_cast<Length>(n)) factor *= 2;
    std::vector<Item> stretched = items;
    Packing stretched_packing = packing;
    for (Item& item : stretched) item.width *= factor;
    for (Length& s : stretched_packing.start) s *= factor;
    EXPECT_EQ(peak_height(Instance(w * factor, stretched), stretched_packing),
              reference)
        << "W=" << w * factor << " n=" << n;
  }
}

TEST(FeasibilityError, ExplainsViolation) {
  const Instance inst = small_instance();
  const auto err = feasibility_error(inst, Packing{{4, 0, 0, 0}});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("item 0"), std::string::npos);
}

TEST(Profile, AddRemoveRoundTrip) {
  Profile profile(10);
  profile.add(2, 5, 3);
  EXPECT_EQ(profile.peak(), 3);
  EXPECT_EQ(profile.load_at(1), 0);
  EXPECT_EQ(profile.load_at(2), 3);
  EXPECT_EQ(profile.load_at(6), 3);
  EXPECT_EQ(profile.load_at(7), 0);
  profile.remove(2, 5, 3);
  EXPECT_EQ(profile.peak(), 0);
}

TEST(Profile, WindowMaxByRuns) {
  Profile profile(8);
  profile.add(0, 2, 5);
  profile.add(4, 2, 2);
  // The max over [start, start+width), walked run by run.
  const auto window_max = [&](Length start, Length width) {
    Height max = 0;
    for (Length x = start; x < start + width; x = profile.next_change(x)) {
      max = std::max(max, profile.load_at(x));
    }
    return max;
  };
  EXPECT_EQ(window_max(0, 8), 5);
  EXPECT_EQ(window_max(2, 2), 0);
  EXPECT_EQ(window_max(3, 3), 2);
}

TEST(Profile, FirstFitFindsLeftmost) {
  Profile profile(10);
  profile.add(0, 4, 4);  // [0,4) at 4
  profile.add(6, 4, 3);  // [6,10) at 3
  // Budget 5, item h=2: cannot sit on [0,4) (4+2>5); fits at 4.
  const auto pos = profile.first_fit(2, 2, 5);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 4);
  // Width 3 forces overlap with one of the blocks: [4,7) hits 3+2=5, ok.
  const auto pos3 = profile.first_fit(3, 2, 5);
  ASSERT_TRUE(pos3.has_value());
  EXPECT_EQ(*pos3, 4);
  // Impossible budget.
  EXPECT_FALSE(profile.first_fit(10, 2, 5).has_value());
}

TEST(Profile, MinPeakPositionPrefersValleys) {
  Profile profile(9);
  profile.add(0, 3, 7);
  profile.add(6, 3, 5);
  const auto best = profile.min_peak_position(3);
  EXPECT_EQ(best.start, 3);
  EXPECT_EQ(best.window_max, 0);
}

TEST(Profile, MinPeakPositionFullWidth) {
  Profile profile(5);
  profile.add(0, 5, 2);
  const auto best = profile.min_peak_position(5);
  EXPECT_EQ(best.start, 0);
  EXPECT_EQ(best.window_max, 2);
}

TEST(SlicedPacking, CanonicalMatchesProfilePeak) {
  const Instance inst = small_instance();
  const Packing packing{{0, 3, 1, 5}};
  const SlicedPacking sliced = SlicedPacking::canonical(inst, packing);
  EXPECT_EQ(sliced.validate(inst), std::nullopt);
  EXPECT_EQ(sliced.height(inst), peak_height(inst, packing));
}

TEST(SlicedPacking, CanonicalSlicesOnlyWhenNeeded) {
  // Two items side by side: no slicing required.
  const Instance inst(4, {{2, 1}, {2, 1}});
  const Packing packing{{0, 2}};
  const SlicedPacking sliced = SlicedPacking::canonical(inst, packing);
  EXPECT_EQ(sliced.slices_of(0).size(), 1u);
  EXPECT_EQ(sliced.slices_of(1).size(), 1u);
}

TEST(SlicedPacking, ValidateCatchesOverlap) {
  const Instance inst(4, {{2, 2}, {2, 2}});
  // Both items at x=0 with identical slice heights: overlap.
  const SlicedPacking bad({0, 0}, {{{0, 2, 0}}, {{0, 2, 1}}});
  const auto err = bad.validate(inst);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("overlap"), std::string::npos);
}

TEST(SlicedPacking, ValidateCatchesCoverageGap) {
  const Instance inst(4, {{3, 1}});
  const SlicedPacking bad({0}, {{{0, 2, 0}}});  // covers [0,2) of [0,3)
  EXPECT_TRUE(bad.validate(inst).has_value());
}

TEST(SlicedPacking, ValidateCatchesNegativeY) {
  const Instance inst(4, {{2, 1}});
  const SlicedPacking bad({0}, {{{0, 2, -1}}});
  EXPECT_TRUE(bad.validate(inst).has_value());
}

TEST(SlicedPacking, SlicingReducesHeightVsContiguous) {
  // The Fig.-1 phenomenon in miniature: a sliced item can wrap around
  // obstacles.  W=2, items: two 1x2 pillars at x=0 and x=1 and one 2x1 bar.
  const Instance inst(2, {{1, 2}, {1, 2}, {2, 1}});
  const Packing packing{{0, 1, 0}};
  EXPECT_EQ(peak_height(inst, packing), 3);
  const SlicedPacking sliced = SlicedPacking::canonical(inst, packing);
  EXPECT_EQ(sliced.validate(inst), std::nullopt);
  EXPECT_EQ(sliced.height(inst), 3);
}

TEST(Bounds, AreaBound) {
  const Instance inst(10, {{10, 3}, {5, 2}});
  EXPECT_EQ(area_lower_bound(inst), (30 + 10 + 9) / 10);
}

TEST(Bounds, WideOverlapBound) {
  // Items wider than W/2 stack over the central column.
  const Instance inst(10, {{6, 2}, {7, 3}, {5, 100}});
  EXPECT_EQ(wide_overlap_lower_bound(inst), 5);
}

TEST(Bounds, CombinedTakesMax) {
  const Instance inst(10, {{6, 2}, {7, 3}, {1, 9}});
  EXPECT_EQ(max_height_lower_bound(inst), 9);
  EXPECT_EQ(combined_lower_bound(inst), 9);
}

TEST(Bounds, CombinedIsActuallyALowerBound) {
  // Randomized sanity: every feasible packing's peak >= combined bound.
  Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    const Length w = rng.uniform(3, 12);
    std::vector<Item> items;
    const int n = static_cast<int>(rng.uniform(1, 6));
    for (int i = 0; i < n; ++i) {
      items.push_back(Item{rng.uniform(1, w), rng.uniform(1, 5)});
    }
    const Instance inst(w, items);
    Packing packing;
    for (const Item& it : inst.items()) {
      packing.start.push_back(rng.uniform(0, w - it.width));
    }
    EXPECT_GE(peak_height(inst, packing), combined_lower_bound(inst))
        << inst.summary();
  }
}

TEST(Render, ProfileContainsPeakLine) {
  const Instance inst = small_instance();
  const Packing packing{{0, 3, 1, 5}};
  const std::string art = render_profile(inst, packing);
  EXPECT_NE(art.find("peak=4"), std::string::npos);
}

TEST(Render, SlicedGridShowsItems) {
  const Instance inst(2, {{1, 2}, {1, 2}, {2, 1}});
  const SlicedPacking sliced =
      SlicedPacking::canonical(inst, Packing{{0, 1, 0}});
  const std::string art = render_sliced(inst, sliced);
  EXPECT_NE(art.find('a'), std::string::npos);
  EXPECT_NE(art.find('c'), std::string::npos);
}

}  // namespace
}  // namespace dsp
