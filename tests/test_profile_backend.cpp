// The run-length Profile (core/profile.hpp) against ArrayProfile, a plain
// column-by-column reference: unit cases, adversarial shapes for the
// barrier-pruned min_peak_position, random operation sequences up to
// W = 2^20, and the placement algorithms of algo/baselines.hpp against
// reference placers written over ArrayProfile.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/portfolio.hpp"
#include "core/bounds.hpp"
#include "core/packing.hpp"
#include "core/profile.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "solve_cold_cells.hpp"

namespace dsp {
namespace {

/// Max load over [start, start+width), read run by run through load_at
/// (0 on an empty window, like a fresh profile's peak).
Height window_max(const Profile& p, Length start, Length width) {
  Height m = 0;
  for (Length x = start; x < start + width; x = p.next_change(x)) {
    m = std::max(m, p.load_at(x));
  }
  return m;
}

TEST(ProfileBackend, AutoResolvesSparseForEveryShape) {
  // The e2ebench shim: every kind and every (W, n) -- the solve-cold cells
  // (1600, 100), (1024, 100) and (2048, 400), a golden-size strip, wide
  // and densely covered strips, a one-column strip under 10^5 items and
  // the empty instance -- resolves to the one run-length profile.
  struct Shape {
    Length w;
    std::size_t n;
  };
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kAuto, ProfileBackendKind::kDense,
        ProfileBackendKind::kSparse}) {
    for (const Shape shape : {Shape{1600, 100}, Shape{1601, 100},
                              Shape{1024, 100}, Shape{2048, 400},
                              Shape{96, 24}, Shape{100000, 50000},
                              Shape{100000, 10}, Shape{1, 100000},
                              Shape{100000, 0}, Shape{1, 0}}) {
      EXPECT_EQ(resolve_backend(kind, shape.w, shape.n),
                ProfileBackendKind::kSparse)
          << to_string(kind) << " W=" << shape.w << " n=" << shape.n;
    }
  }
  EXPECT_EQ(to_string(ProfileBackendKind::kDense), "dense");
  EXPECT_EQ(to_string(ProfileBackendKind::kSparse), "sparse");
  EXPECT_EQ(to_string(ProfileBackendKind::kAuto), "auto");
}

// --- unit cases -------------------------------------------------------------
//
// Every unit case runs on an all-zero profile obtained two ways: freshly
// constructed, and copy-assigned over a used profile of another width
// (Profile is a value type).  Each must behave exactly like the fresh one.

enum class Provenance { kFresh, kCopyAssigned };

void PrintTo(Provenance provenance, std::ostream* os) {
  *os << (provenance == Provenance::kFresh ? "fresh" : "copy_assigned");
}

/// Leaves a mix of positive, negative and raised runs over the strip.
void dirty(Profile& p) {
  const Length w = p.strip_width();
  p.add(0, w, 3);
  p.add(w / 2, w - w / 2, 5);
  p.add(0, 1, -7);
  p.raise_to(w - 1, 1, 11);
}

/// An all-zero profile of width `w`, obtained the given way.
Profile make_profile(Provenance how, Length w) {
  switch (how) {
    case Provenance::kFresh:
      return Profile(w);
    case Provenance::kCopyAssigned: {
      Profile p(w + 5);
      dirty(p);
      const Profile fresh(w);
      p = fresh;
      return p;
    }
  }
  return Profile(w);
}

class ProfileOps : public ::testing::TestWithParam<Provenance> {
 protected:
  [[nodiscard]] Profile make(Length w) const {
    return make_profile(GetParam(), w);
  }
};

TEST_P(ProfileOps, EmptyStripHasZeroPeak) {
  const Profile p = make(10);
  EXPECT_EQ(p.strip_width(), 10);
  EXPECT_EQ(p.peak(), 0);
  EXPECT_EQ(window_max(p, 0, 10), 0);
  EXPECT_EQ(p.next_change(0), 10);
}

TEST_P(ProfileOps, SingleAdd) {
  Profile p = make(10);
  p.add(2, 5, 5);
  EXPECT_EQ(p.peak(), 5);
  EXPECT_EQ(window_max(p, 0, 2), 0);
  EXPECT_EQ(window_max(p, 2, 5), 5);
  EXPECT_EQ(window_max(p, 6, 4), 5);
  EXPECT_EQ(window_max(p, 7, 3), 0);
  EXPECT_EQ(p.next_change(0), 2);
  EXPECT_EQ(p.next_change(3), 7);
  // The tail [7, 10) is constant: the next change is the strip's end.
  EXPECT_EQ(p.next_change(7), 10);
  EXPECT_EQ(p.next_change(9), 10);
  // Every 4-wide window meets the item, so nothing fits under budget 5.
  EXPECT_EQ(p.first_fit(4, 1, 5), std::nullopt);
  EXPECT_EQ(p.first_fit(4, 1, 6), std::optional<Length>(0));
  // A full-width item has one position.
  EXPECT_EQ(p.min_peak_position(10).start, 0);
  EXPECT_EQ(p.min_peak_position(10).window_max, 5);
}

TEST_P(ProfileOps, StackedAdds) {
  Profile p = make(8);
  p.add(0, 8, 1);
  p.add(2, 4, 2);
  p.add(4, 1, 3);
  EXPECT_EQ(window_max(p, 0, 2), 1);
  EXPECT_EQ(window_max(p, 2, 2), 3);
  EXPECT_EQ(window_max(p, 4, 1), 6);
  EXPECT_EQ(p.peak(), 6);
}

TEST_P(ProfileOps, RemovalRestoresState) {
  Profile p = make(8);
  p.add(1, 4, 4);
  p.remove(1, 4, 4);
  EXPECT_EQ(p.peak(), 0);
  EXPECT_EQ(p.next_change(0), 8);
}

TEST_P(ProfileOps, RejectsBadRanges) {
  Profile p = make(8);
  EXPECT_THROW(p.add(-1, 4, 1), InvalidInput);
  EXPECT_THROW(p.add(3, 0, 1), InvalidInput);
  EXPECT_THROW(p.raise_to(6, 3, 1), InvalidInput);
  EXPECT_THROW(static_cast<void>(p.first_fit(9, 1, 5)), InvalidInput);
  EXPECT_THROW(static_cast<void>(p.min_peak_position(9)), InvalidInput);
  EXPECT_THROW(static_cast<void>(Profile(0)), InvalidInput);
}

TEST_P(ProfileOps, NonPowerOfTwoWidths) {
  for (const Length w : {1, 3, 7, 13, 100}) {
    Profile p = make(w);
    p.add(0, w, 2);
    EXPECT_EQ(p.peak(), 2) << "w=" << w;
    EXPECT_EQ(p.min_peak_position(w).window_max, 2) << "w=" << w;
    EXPECT_EQ(p.min_peak_position(w).start, 0) << "w=" << w;
    EXPECT_EQ(p.next_change(0), w) << "w=" << w;
    EXPECT_EQ(p.first_fit(1, 1, 2), std::nullopt) << "w=" << w;
  }
}

TEST_P(ProfileOps, LoadAtOutsideTheStripThrowsInvalidInput) {
  Profile p = make(8);
  p.add(0, 8, 3);
  EXPECT_EQ(p.load_at(0), 3);
  EXPECT_EQ(p.load_at(7), 3);
  EXPECT_THROW(static_cast<void>(p.load_at(-1)), InvalidInput);
  EXPECT_THROW(static_cast<void>(p.load_at(8)), InvalidInput);
}

TEST_P(ProfileOps, FirstFitMatchesContract) {
  Profile p = make(10);
  // Profile: [0,4) at 5, [4,7) empty, [7,10) at 2.
  p.add(0, 4, 5);
  p.add(7, 3, 2);
  EXPECT_EQ(p.first_fit(3, 1, 1), std::optional<Length>(4));
  EXPECT_EQ(p.first_fit(3, 3, 5), std::optional<Length>(4));
  EXPECT_EQ(p.first_fit(3, 3, 8), std::optional<Length>(0));
  EXPECT_EQ(p.first_fit(4, 1, 2), std::nullopt);   // no 4-wide gap under 2
  EXPECT_EQ(p.first_fit(10, 1, 6), std::optional<Length>(0));
  EXPECT_EQ(p.first_fit(10, 2, 6), std::nullopt);  // full width, over budget
}

TEST_P(ProfileOps, MinPeakPositionPrefersValleys) {
  Profile p = make(9);
  p.add(0, 3, 4);
  p.add(6, 3, 2);
  const auto best = p.min_peak_position(3);
  EXPECT_EQ(best.start, 3);
  EXPECT_EQ(best.window_max, 0);
  p.add(3, 3, 7);
  const auto next = p.min_peak_position(2);
  EXPECT_EQ(next.start, 6);
  EXPECT_EQ(next.window_max, 2);
}

TEST_P(ProfileOps, RaiseToLiftsWindow) {
  Profile p = make(8);
  p.add(2, 2, 5);
  p.raise_to(0, 6, 3);
  EXPECT_EQ(p.load_at(0), 3);
  EXPECT_EQ(p.load_at(2), 5);  // already above the target
  EXPECT_EQ(p.load_at(5), 3);
  EXPECT_EQ(p.load_at(6), 0);
  EXPECT_EQ(p.peak(), 5);
}

TEST_P(ProfileOps, CopiesAreIndependent) {
  Profile original = make(12);
  original.add(2, 6, 4);
  Profile copy = original;
  copy.raise_to(0, 12, 9);
  EXPECT_EQ(original.load_at(0), 0);
  EXPECT_EQ(original.peak(), 4);
  EXPECT_EQ(copy.load_at(0), 9);
  EXPECT_EQ(copy.next_change(0), 12);
}

INSTANTIATE_TEST_SUITE_P(
    Provenance, ProfileOps,
    ::testing::Values(Provenance::kFresh, Provenance::kCopyAssigned),
    ::testing::PrintToStringParamName());

// --- the column-by-column reference ----------------------------------------
//
// ArrayProfile keeps one load per column.  Its searches run on the window
// maxima M[x] = max load over [x, x+width), computed by the classical
// monotone deque in O(W), so the reference stays usable at W = 2^20; the
// deque itself is checked against brute force below.  The shapes after it
// stress the run profile's barrier jumps (a run at or above the best so far
// skips every start that covers it; an improvement skips to the run after
// the window max).

/// Sliding-window maxima by the monotone deque: out[x] = max of
/// load[x, x + width) for every start x in [0, |load| - width].
std::vector<Height> deque_sliding_maxima(std::span<const Height> load,
                                         Length width) {
  std::vector<Height> out;
  std::deque<std::size_t> dq;
  const auto w = static_cast<std::size_t>(width);
  for (std::size_t i = 0; i < load.size(); ++i) {
    while (!dq.empty() && load[dq.back()] <= load[i]) dq.pop_back();
    dq.push_back(i);
    if (i + 1 >= w) {
      if (dq.front() + w <= i) dq.pop_front();
      out.push_back(load[dq.front()]);
    }
  }
  return out;
}

TEST(ArrayProfile, DequeWindowMaximaMatchBruteForce) {
  // Tiny arrays, primes and non-powers of two, with negative loads (remove
  // and budget-shifted values), every window width.
  Rng rng(20260807);
  for (const std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64,
                              101}) {
    std::vector<Height> load(n);
    for (Height& h : load) h = static_cast<Height>(rng.uniform(0, 2000)) - 1000;
    for (Length width = 1; width <= static_cast<Length>(n); ++width) {
      const std::vector<Height> got = deque_sliding_maxima(load, width);
      ASSERT_EQ(got.size(), n - static_cast<std::size_t>(width) + 1)
          << "n=" << n << " w=" << width;
      for (std::size_t x = 0; x < got.size(); ++x) {
        const auto first = load.begin() + static_cast<std::ptrdiff_t>(x);
        ASSERT_EQ(got[x], *std::max_element(first, first + width))
            << "n=" << n << " w=" << width << " x=" << x;
      }
    }
  }
}

/// Column-by-column profile, the specification Profile must meet.
class ArrayProfile {
 public:
  explicit ArrayProfile(Length w) : load_(static_cast<std::size_t>(w), 0) {}

  void add(Length start, Length width, Height height) {
    for (Length x = start; x < start + width; ++x) at(x) += height;
  }
  void remove(Length start, Length width, Height height) {
    add(start, width, -height);
  }
  void raise_to(Length start, Length width, Height target) {
    for (Length x = start; x < start + width; ++x) {
      at(x) = std::max(at(x), target);
    }
  }

  /// The leftmost minimizer of the window maxima.
  [[nodiscard]] BestPosition min_peak_position(Length width) const {
    const std::vector<Height> maxima = deque_sliding_maxima(load_, width);
    const auto best = std::min_element(maxima.begin(), maxima.end());
    return {static_cast<Length>(best - maxima.begin()), *best};
  }

  /// The first start whose window max plus `height` fits under `budget`.
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const {
    const std::vector<Height> maxima = deque_sliding_maxima(load_, width);
    const auto fit =
        std::find_if(maxima.begin(), maxima.end(),
                     [&](Height m) { return m + height <= budget; });
    if (fit == maxima.end()) return std::nullopt;
    return static_cast<Length>(fit - maxima.begin());
  }

  [[nodiscard]] Length strip_width() const {
    return static_cast<Length>(load_.size());
  }
  [[nodiscard]] Height load_at(Length x) const {
    return load_[static_cast<std::size_t>(x)];
  }
  /// The highest load, clamped at 0.
  [[nodiscard]] Height peak() const {
    return std::max<Height>(0, *std::max_element(load_.begin(), load_.end()));
  }
  /// The first column after x with a different load, or W.
  [[nodiscard]] Length next_change(Length x) const {
    Length next = x + 1;
    while (next < strip_width() && load_at(next) == load_at(x)) ++next;
    return next;
  }
  /// Max load over [start, start+width), clamped at 0.
  [[nodiscard]] Height window_max(Length start, Length width) const {
    const auto first = load_.begin() + start;
    return std::max<Height>(0, *std::max_element(first, first + width));
  }

 private:
  Height& at(Length x) { return load_[static_cast<std::size_t>(x)]; }

  std::vector<Height> load_;
};

/// A Profile next to the reference, fed the same operations.
struct ReferencedProfiles {
  explicit ReferencedProfiles(Length w) : reference(w), profile(w) {}

  /// Builds the profile whose column x carries columns[x].
  explicit ReferencedProfiles(const std::vector<Height>& columns)
      : ReferencedProfiles(static_cast<Length>(columns.size())) {
    for (std::size_t x = 0; x < columns.size(); ++x) {
      add(static_cast<Length>(x), 1, columns[x]);
    }
  }

  void add(Length start, Length width, Height height) {
    reference.add(start, width, height);
    profile.add(start, width, height);
  }
  void remove(Length start, Length width, Height height) {
    reference.remove(start, width, height);
    profile.remove(start, width, height);
  }
  void raise_to(Length start, Length width, Height target) {
    reference.raise_to(start, width, target);
    profile.raise_to(start, width, target);
  }
  /// Back to the all-zero profile: both are constructed afresh.
  void clear() {
    reference = ArrayProfile(reference.strip_width());
    profile = Profile(profile.strip_width());
  }

  /// min_peak_position for `width` equals the reference's.
  void expect_matches(Length width, const std::string& label) const {
    const BestPosition want = reference.min_peak_position(width);
    const BestPosition got = profile.min_peak_position(width);
    EXPECT_EQ(got.start, want.start) << label << " width=" << width;
    EXPECT_EQ(got.window_max, want.window_max) << label << " width=" << width;
  }
  /// first_fit equals the reference's.
  void expect_first_fit_matches(Length width, Height height, Height budget,
                                const std::string& label) const {
    EXPECT_EQ(profile.first_fit(width, height, budget),
              reference.first_fit(width, height, budget))
        << label << " width=" << width << " height=" << height
        << " budget=" << budget;
  }
  /// expect_matches for every width 1..W, plus the loads column by column.
  void expect_matches_all_widths(const std::string& label) const {
    for (Length width = 1; width <= reference.strip_width(); ++width) {
      expect_matches(width, label);
    }
    for (Length x = 0; x < reference.strip_width(); ++x) {
      ASSERT_EQ(profile.load_at(x), reference.load_at(x))
          << label << " x=" << x;
    }
  }

  ArrayProfile reference;
  Profile profile;
};

/// Columns of `runs` steps of `step` columns each; step k has height
/// first + k * delta.
std::vector<Height> staircase(int runs, Length step, Height first,
                              Height delta) {
  std::vector<Height> columns;
  for (int k = 0; k < runs; ++k) {
    columns.insert(columns.end(), static_cast<std::size_t>(step),
                   first + k * delta);
  }
  return columns;
}

TEST(MinPeakPositionReference, DescendingAndAscendingStaircases) {
  for (const Length step : {1, 2, 5}) {
    ReferencedProfiles(staircase(40, step, 40, -1))
        .expect_matches_all_widths("descending step=" + std::to_string(step));
    ReferencedProfiles(staircase(40, step, 1, 1))
        .expect_matches_all_widths("ascending step=" + std::to_string(step));
  }
  // A staircase that descends, then climbs again: the best start keeps
  // moving right until the valley, then stays.
  std::vector<Height> valley = staircase(20, 2, 21, -1);
  const std::vector<Height> climb = staircase(20, 3, 2, 1);
  valley.insert(valley.end(), climb.begin(), climb.end());
  ReferencedProfiles(valley).expect_matches_all_widths("valley");
}

TEST(MinPeakPositionReference, Sawtooth) {
  for (const int period : {2, 3, 7}) {
    std::vector<Height> rising;
    std::vector<Height> falling;
    for (int x = 0; x < 60; ++x) {
      rising.push_back(1 + x % period);
      falling.push_back(period - x % period);
    }
    ReferencedProfiles(rising).expect_matches_all_widths(
        "rising sawtooth period=" + std::to_string(period));
    ReferencedProfiles(falling).expect_matches_all_widths(
        "falling sawtooth period=" + std::to_string(period));
  }
  // Teeth that shrink to the right: every new window max is a strict
  // improvement reached only after a barrier.
  std::vector<Height> shrinking;
  for (Height tooth = 12; tooth >= 1; --tooth) {
    shrinking.insert(shrinking.end(), {tooth, 0, 0, tooth});
  }
  ReferencedProfiles(shrinking).expect_matches_all_widths("shrinking teeth");
}

TEST(MinPeakPositionReference, EqualHeightPlateausKeepTheLeftmostMinimizer) {
  // Equal minima at several places: the leftmost must win, and a run equal
  // to the best so far is a barrier, not a tie to move to.
  for (const std::vector<Height>& columns :
       {std::vector<Height>{3, 1, 1, 3, 1, 1, 3, 1, 1, 3},
        std::vector<Height>{2, 2, 5, 2, 2, 2, 5, 2, 2, 5, 2},
        std::vector<Height>{4, 4, 4, 4, 4, 4, 4, 4},
        std::vector<Height>{1, 3, 1, 3, 1, 3, 1, 3, 1},
        std::vector<Height>{5, 2, 2, 5, 5, 2, 2, 2, 5, 2, 2, 5},
        std::vector<Height>{0, 6, 6, 0, 0, 6, 0, 6, 6, 6, 0, 0, 0}}) {
    ReferencedProfiles(columns).expect_matches_all_widths("plateau");
  }
}

TEST(MinPeakPositionReference, WindowEqualToTheStrip) {
  for (const Length w : {1, 2, 9, 64}) {
    ReferencedProfiles profiles(staircase(static_cast<int>(w), 1, w, -1));
    profiles.expect_matches(w, "full width W=" + std::to_string(w));
    profiles.add(0, w, 3);
    profiles.expect_matches(w, "full width after add W=" + std::to_string(w));
  }
}

TEST(MinPeakPositionReference, NegativeLoadsLeftByRemove) {
  // remove() of an item that was never added leaves loads below zero; the
  // search must not assume a zero floor.
  ReferencedProfiles profiles(30);
  profiles.add(0, 30, 2);
  profiles.remove(3, 4, 5);
  profiles.remove(12, 2, 7);
  profiles.remove(20, 6, 3);
  profiles.expect_matches_all_widths("negative valleys");
  profiles.clear();
  profiles.remove(0, 30, 4);
  profiles.add(10, 5, 1);
  profiles.expect_matches_all_widths("negative floor");
}

TEST(MinPeakPositionReference, RandomOperationSequences) {
  for (int seq = 0; seq < 200; ++seq) {
    Rng rng(static_cast<std::uint64_t>(seq) * 7919 + 5);
    const Length w = rng.uniform(1, 48);
    ReferencedProfiles profiles(w);
    const std::string label = "seq=" + std::to_string(seq);
    for (int op = 0; op < 24; ++op) {
      const Length width = rng.uniform(1, w);
      const Length start = rng.uniform(0, w - width);
      switch (rng.uniform(0, 4)) {
        case 0:
        case 1:
          profiles.add(start, width, rng.uniform(1, 6));
          break;
        case 2:  // not necessarily a placed item: loads may go negative
          profiles.remove(start, width, rng.uniform(1, 6));
          break;
        case 3:
          profiles.raise_to(start, width, rng.uniform(-3, 12));
          break;
        case 4:
          if (rng.chance(0.2)) profiles.clear();
          break;
      }
      profiles.expect_matches(rng.uniform(1, w), label);
      profiles.expect_matches(w, label);
      profiles.expect_first_fit_matches(rng.uniform(1, w), rng.uniform(1, 6),
                                        rng.uniform(-2, 20), label);
    }
    profiles.expect_matches_all_widths(label);
  }
}

// --- random operation sequences, narrow to W = 2^20 -------------------------

class ReferenceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceEquivalence, AgreeOnRandomOperations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 17);
  // Params below 24 alternate between narrow strips (W <= 60) and
  // medium ones; the rest are wide strips, W in [2^16, 2^20], with few
  // items and a mix of narrow and strip-wide windows.
  const bool wide = GetParam() >= 24;
  const Length w = wide                    ? rng.uniform(1 << 16, 1 << 20)
                   : GetParam() % 2 == 0 ? rng.uniform(2, 60)
                                         : rng.uniform(500, 4000);
  const int ops = wide ? 48 : 160;
  ArrayProfile reference(w);
  Profile profile(w);
  struct Placed {
    Length start;
    Length width;
    Height height;
  };
  std::vector<Placed> placed;
  for (int op = 0; op < ops; ++op) {
    const Length width = wide && rng.chance(0.5)
                             ? rng.uniform(1, std::min<Length>(w, 512))
                             : rng.uniform(1, w);
    const Length start = rng.uniform(0, w - width);
    switch (rng.uniform(0, 6)) {
      case 0:
      case 1: {  // add
        const Height h = rng.uniform(1, 12);
        reference.add(start, width, h);
        profile.add(start, width, h);
        placed.push_back({start, width, h});
        break;
      }
      case 2: {  // remove a previously placed item
        if (placed.empty()) break;
        const auto k = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(placed.size()) - 1));
        reference.remove(placed[k].start, placed[k].width, placed[k].height);
        profile.remove(placed[k].start, placed[k].width, placed[k].height);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // raise_to (skyline lift)
        const Height target = rng.uniform(0, 20);
        reference.raise_to(start, width, target);
        profile.raise_to(start, width, target);
        placed.clear();  // removes are no longer meaningful
        break;
      }
      case 4: {  // first_fit
        const Height h = rng.uniform(1, 12);
        const Height budget = rng.uniform(0, 30);
        EXPECT_EQ(profile.first_fit(width, h, budget),
                  reference.first_fit(width, h, budget))
            << "w=" << w << " width=" << width << " h=" << h
            << " budget=" << budget;
        break;
      }
      case 5: {  // min_peak_position
        const auto got = profile.min_peak_position(width);
        const auto want = reference.min_peak_position(width);
        EXPECT_EQ(got.start, want.start) << "w=" << w << " width=" << width;
        EXPECT_EQ(got.window_max, want.window_max);
        break;
      }
      case 6: {  // back to the empty profile
        reference = ArrayProfile(w);
        profile = Profile(w);
        placed.clear();
        break;
      }
    }
    EXPECT_EQ(window_max(profile, start, width),
              reference.window_max(start, width));
    EXPECT_EQ(profile.next_change(start), reference.next_change(start));
  }
  EXPECT_EQ(profile.peak(), reference.peak());
  // The whole profile, run by run.
  for (Length x = 0; x < w; x = reference.next_change(x)) {
    ASSERT_EQ(profile.load_at(x), reference.load_at(x)) << "x=" << x;
    ASSERT_EQ(profile.next_change(x), reference.next_change(x)) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ReferenceEquivalence, ::testing::Range(0, 40));

// --- the placement algorithms against reference placers ---------------------
//
// Greedy lowest-peak and budgeted first fit written over ArrayProfile, from
// their definitions: items in the order's stable sort (decreasing key, ties
// by index), each at the leftmost start minimizing the window max, or at the
// leftmost start that fits under the budget.  algo::greedy_lowest_peak (all
// three orders), first_fit_with_budget and first_fit_search must give
// exactly their packings.

/// Indices in stable decreasing `key` order.
template <typename Key>
std::vector<std::size_t> reference_order(const Instance& inst, Key key) {
  std::vector<std::size_t> order(inst.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key(inst.item(a)) > key(inst.item(b));
                   });
  return order;
}

constexpr auto kByHeight = [](const Item& it) { return it.height; };

template <typename Key>
Packing reference_greedy(const Instance& inst, Key key) {
  ArrayProfile profile(inst.strip_width());
  Packing packing;
  packing.start.resize(inst.size());
  for (const std::size_t i : reference_order(inst, key)) {
    const Item& it = inst.item(i);
    packing.start[i] = profile.min_peak_position(it.width).start;
    profile.add(packing.start[i], it.width, it.height);
  }
  return packing;
}

std::optional<Packing> reference_first_fit(const Instance& inst,
                                           Height budget) {
  ArrayProfile profile(inst.strip_width());
  Packing packing;
  packing.start.resize(inst.size());
  for (const std::size_t i : reference_order(inst, kByHeight)) {
    const Item& it = inst.item(i);
    const std::optional<Length> x =
        profile.first_fit(it.width, it.height, budget);
    if (!x) return std::nullopt;
    packing.start[i] = *x;
    profile.add(*x, it.width, it.height);
  }
  return packing;
}

/// The smallest budget in [lower bound, greedy-h peak] first fit meets, by
/// bisection; the greedy-h packing when none below its peak does.
Packing reference_first_fit_search(const Instance& inst) {
  const Packing greedy = reference_greedy(inst, kByHeight);
  Height lo = combined_lower_bound(inst);
  Height hi = peak_height(inst, greedy);
  std::optional<Packing> best;
  while (lo < hi) {
    const Height mid = lo + (hi - lo) / 2;
    if (auto packing = reference_first_fit(inst, mid)) {
      best = std::move(packing);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return best ? *best : greedy;
}

/// The reference packing, with the peak peak_height gives it.
algo::Scored scored(const Instance& inst, Packing packing) {
  const Height peak = peak_height(inst, packing);
  return {std::move(packing), peak};
}

void expect_placements_match_reference(const Instance& inst) {
  const algo::Scored greedy_h = scored(inst, reference_greedy(inst, kByHeight));
  EXPECT_EQ(algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingHeight),
            greedy_h)
      << inst.summary();
  EXPECT_EQ(algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingArea),
            scored(inst, reference_greedy(
                             inst, [](const Item& it) { return it.area(); })))
      << inst.summary();
  EXPECT_EQ(algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingWidth),
            scored(inst, reference_greedy(
                             inst, [](const Item& it) { return it.width; })))
      << inst.summary();
  // Budgets just below the lower bound, at it, halfway to the greedy-h
  // peak and at that peak.
  const Height lb = combined_lower_bound(inst);
  for (const Height budget :
       {lb - 1, lb, lb + (greedy_h.peak - lb) / 2, greedy_h.peak}) {
    std::optional<algo::Scored> expected;
    if (auto reference = reference_first_fit(inst, budget)) {
      expected = scored(inst, std::move(*reference));
    }
    EXPECT_EQ(algo::first_fit_with_budget(inst, budget), expected)
        << "budget " << budget << " " << inst.summary();
  }
  const algo::Scored search = scored(inst, reference_first_fit_search(inst));
  EXPECT_EQ(algo::first_fit_search(inst, lb, greedy_h), search)
      << inst.summary();
}

constexpr int kRandomPlacementCases = 12;

/// Parameters below kRandomPlacementCases seed a random instance; the rest
/// index the golden corpus.
Instance placement_instance(int param) {
  if (param >= kRandomPlacementCases) {
    return gen::golden_corpus()
        .at(static_cast<std::size_t>(param - kRandomPlacementCases))
        .instance;
  }
  Rng rng(static_cast<std::uint64_t>(param) * 7121 + 3);
  const Length w = rng.uniform(8, 200);
  return gen::random_uniform(static_cast<std::size_t>(rng.uniform(4, 30)), w,
                             std::min<Length>(w, 40), 15, rng);
}

class PlacementReference : public ::testing::TestWithParam<int> {};

TEST_P(PlacementReference, PlacementAlgorithmsMatchReference) {
  expect_placements_match_reference(placement_instance(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Random, PlacementReference,
                         ::testing::Range(0, kRandomPlacementCases));
INSTANTIATE_TEST_SUITE_P(Golden, PlacementReference,
                         ::testing::Range(kRandomPlacementCases,
                                          kRandomPlacementCases + 9));

// --- the solve-cold cells ---------------------------------------------------
//
// tests/solve_cold_cells.hpp: the placement algorithms match the
// reference placers on every cell, and the witness portfolio's answers are
// pinned.

using testing_cells::solve_cold_cells;
using testing_cells::solve_cold_instance;
using testing_cells::SolveColdCell;

class SolveColdCellReference
    : public ::testing::TestWithParam<SolveColdCell> {};

TEST_P(SolveColdCellReference, PlacementAlgorithmsMatchReference) {
  expect_placements_match_reference(solve_cold_instance(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolveColdCellReference, ::testing::ValuesIn(solve_cold_cells()),
    ::testing::PrintToStringParamName());

/// bench_parallel_scaling's hash step.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

TEST(SolveColdCells, PortfolioChecksumIsPinned) {
  // Every cell's witness peak, winner name and start positions, folded in
  // grid order.  Recorded while a dense per-column profile still packed
  // these cells too and agreed with the run-length one on every cell; a
  // change that moves one start or swaps one winner fails here.
  constexpr std::uint64_t kPin = 11078234835343177838ull;
  std::uint64_t checksum = 0;
  for (const SolveColdCell& cell : solve_cold_cells()) {
    const Instance inst = solve_cold_instance(cell);
    std::string winner;
    const Packing packing = algo::best_of_portfolio(inst, &winner);
    checksum = mix(checksum, static_cast<std::uint64_t>(
                                 peak_height(inst, packing)));
    for (const char c : winner) {
      checksum = mix(checksum, static_cast<unsigned char>(c));
    }
    for (const Length start : packing.start) {
      checksum = mix(checksum, static_cast<std::uint64_t>(start));
    }
  }
  EXPECT_EQ(checksum, kPin);
}

}  // namespace
}  // namespace dsp
