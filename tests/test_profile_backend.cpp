#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/baselines.hpp"
#include "algo/portfolio.hpp"
#include "core/occupancy.hpp"
#include "core/profile.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "sp/bottom_left.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// Whether `kind` builds StripOccupancy, the dense backend.
bool builds_dense(ProfileBackendKind kind, Length w) {
  const auto profile = make_profile_backend(kind, w);
  return dynamic_cast<const StripOccupancy*>(profile.get()) != nullptr;
}

/// Max load over [start, start+width), read run by run through load_at
/// (0 on an empty window, like a fresh profile's peak).
Height window_max(const ProfileBackend& p, Length start, Length width) {
  Height m = 0;
  for (Length x = start; x < start + width; x = p.next_change(x)) {
    m = std::max(m, p.load_at(x));
  }
  return m;
}

TEST(ProfileBackend, FactoryProducesRequestedKind) {
  EXPECT_TRUE(builds_dense(ProfileBackendKind::kDense, 10));
  EXPECT_FALSE(builds_dense(ProfileBackendKind::kSparse, 10));
}

TEST(ProfileBackend, AutoResolvesSparseForEveryShape) {
  // Every (W, n) the old W > 16 n rule sent to the dense backend -- the
  // solve-cold cells (1600, 100), (1024, 100) and (2048, 400), a golden-size
  // strip and a wide, densely covered one -- plus a one-column strip under
  // 10^5 items and the empty instance: kAuto builds the run-length profile.
  struct Shape {
    Length w;
    std::size_t n;
  };
  for (const Shape shape : {Shape{1600, 100}, Shape{1601, 100},
                            Shape{1024, 100}, Shape{2048, 400},
                            Shape{96, 24}, Shape{100000, 50000},
                            Shape{100000, 10}, Shape{1, 100000},
                            Shape{100000, 0}, Shape{1, 0}}) {
    EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, shape.w, shape.n),
              ProfileBackendKind::kSparse)
        << "W=" << shape.w << " n=" << shape.n;
    EXPECT_FALSE(builds_dense(ProfileBackendKind::kAuto, shape.w))
        << "W=" << shape.w << " n=" << shape.n;
  }
  // Concrete kinds resolve to themselves.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kDense, 100000, 10),
            ProfileBackendKind::kDense);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kDense, 96, 24),
            ProfileBackendKind::kDense);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kSparse, 8, 10),
            ProfileBackendKind::kSparse);
}

// --- unit cases, run on both kinds ----------------------------------------

class ProfileBackendOps : public ::testing::TestWithParam<ProfileBackendKind> {
 protected:
  [[nodiscard]] std::unique_ptr<ProfileBackend> make(Length w) const {
    return make_profile_backend(GetParam(), w);
  }
};

TEST_P(ProfileBackendOps, EmptyStripHasZeroPeak) {
  const auto p = make(10);
  EXPECT_EQ(p->peak(), 0);
  EXPECT_EQ(window_max(*p, 0, 10), 0);
  EXPECT_EQ(p->next_change(0), 10);
}

TEST_P(ProfileBackendOps, SingleAdd) {
  const auto p = make(10);
  p->add(2, 5, 5);
  EXPECT_EQ(p->peak(), 5);
  EXPECT_EQ(window_max(*p, 0, 2), 0);
  EXPECT_EQ(window_max(*p, 2, 5), 5);
  EXPECT_EQ(window_max(*p, 6, 4), 5);
  EXPECT_EQ(window_max(*p, 7, 3), 0);
  EXPECT_EQ(p->next_change(0), 2);
  EXPECT_EQ(p->next_change(3), 7);
  // The tail [7, 10) is constant: the next change is the strip's end.
  EXPECT_EQ(p->next_change(7), 10);
  EXPECT_EQ(p->next_change(9), 10);
  // Every 4-wide window meets the item, so nothing fits under budget 5.
  EXPECT_EQ(p->first_fit(4, 1, 5), std::nullopt);
  EXPECT_EQ(p->first_fit(4, 1, 6), std::optional<Length>(0));
  // A full-width item has one position.
  EXPECT_EQ(p->min_peak_position(10).start, 0);
  EXPECT_EQ(p->min_peak_position(10).window_max, 5);
}

TEST_P(ProfileBackendOps, StackedAdds) {
  const auto p = make(8);
  p->add(0, 8, 1);
  p->add(2, 4, 2);
  p->add(4, 1, 3);
  EXPECT_EQ(window_max(*p, 0, 2), 1);
  EXPECT_EQ(window_max(*p, 2, 2), 3);
  EXPECT_EQ(window_max(*p, 4, 1), 6);
  EXPECT_EQ(p->peak(), 6);
}

TEST_P(ProfileBackendOps, RemovalRestoresState) {
  const auto p = make(8);
  p->add(1, 4, 4);
  p->remove(1, 4, 4);
  EXPECT_EQ(p->peak(), 0);
  EXPECT_EQ(p->next_change(0), 8);
}

TEST_P(ProfileBackendOps, RejectsBadRanges) {
  const auto p = make(8);
  EXPECT_THROW(p->add(-1, 4, 1), InvalidInput);
  EXPECT_THROW(p->add(3, 0, 1), InvalidInput);
  EXPECT_THROW(p->raise_to(6, 3, 1), InvalidInput);
  EXPECT_THROW(static_cast<void>(window_max(*p, 0, 9)), InvalidInput);
  EXPECT_THROW(static_cast<void>(p->first_fit(9, 1, 5)), InvalidInput);
  EXPECT_THROW(static_cast<void>(make(0)), InvalidInput);
}

TEST_P(ProfileBackendOps, NonPowerOfTwoWidths) {
  for (const Length w : {1, 3, 7, 13, 100}) {
    const auto p = make(w);
    p->add(0, w, 2);
    EXPECT_EQ(p->peak(), 2) << "w=" << w;
    EXPECT_EQ(p->min_peak_position(w).window_max, 2) << "w=" << w;
    EXPECT_EQ(p->min_peak_position(w).start, 0) << "w=" << w;
    EXPECT_EQ(p->next_change(0), w) << "w=" << w;
    EXPECT_EQ(p->first_fit(1, 1, 2), std::nullopt) << "w=" << w;
  }
}

TEST_P(ProfileBackendOps, LoadAtOutsideTheStripThrowsInvalidInput) {
  const auto p = make(8);
  p->add(0, 8, 3);
  EXPECT_EQ(p->load_at(0), 3);
  EXPECT_EQ(p->load_at(7), 3);
  EXPECT_THROW(static_cast<void>(p->load_at(-1)), InvalidInput);
  EXPECT_THROW(static_cast<void>(p->load_at(8)), InvalidInput);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ProfileBackendOps,
                         ::testing::Values(ProfileBackendKind::kDense,
                                           ProfileBackendKind::kSparse),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SparseProfileBackend, FirstFitMatchesContract) {
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 10);
  // Profile: [0,4) at 5, [4,7) empty, [7,10) at 2.
  p->add(0, 4, 5);
  p->add(7, 3, 2);
  EXPECT_EQ(p->first_fit(3, 1, 1), std::optional<Length>(4));
  EXPECT_EQ(p->first_fit(3, 3, 5), std::optional<Length>(4));
  EXPECT_EQ(p->first_fit(3, 3, 8), std::optional<Length>(0));
  EXPECT_EQ(p->first_fit(4, 1, 2), std::nullopt);   // no 4-wide gap under 2
  EXPECT_EQ(p->first_fit(10, 1, 6), std::optional<Length>(0));
  EXPECT_EQ(p->first_fit(10, 2, 6), std::nullopt);  // full width, over budget
}

TEST(SparseProfileBackend, MinPeakPositionPrefersValleys) {
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 9);
  p->add(0, 3, 4);
  p->add(6, 3, 2);
  const auto best = p->min_peak_position(3);
  EXPECT_EQ(best.start, 3);
  EXPECT_EQ(best.window_max, 0);
  p->add(3, 3, 7);
  const auto next = p->min_peak_position(2);
  EXPECT_EQ(next.start, 6);
  EXPECT_EQ(next.window_max, 2);
}

TEST(SparseProfileBackend, RaiseToLiftsWindow) {
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 8);
  p->add(2, 2, 5);
  p->raise_to(0, 6, 3);
  EXPECT_EQ(p->load_at(0), 3);
  EXPECT_EQ(p->load_at(2), 5);  // already above the target
  EXPECT_EQ(p->load_at(5), 3);
  EXPECT_EQ(p->load_at(6), 0);
  EXPECT_EQ(p->peak(), 5);
}

// --- min_peak_position against a plain W-array reference -----------------
//
// The reference keeps one load per column and answers min_peak_position by
// brute force: the window max of every start, leftmost minimizer (and
// first_fit: the first start whose window fits under the budget).  The
// shapes below stress the run profile's barrier jumps (a run at or above the
// best so far skips every start that covers it; an improvement skips to the
// run after the window max).

/// Column-by-column profile, the specification the backends must meet.
class ArrayProfile {
 public:
  explicit ArrayProfile(Length w) : load_(static_cast<std::size_t>(w), 0) {}

  void add(Length start, Length width, Height height) {
    for (Length x = start; x < start + width; ++x) at(x) += height;
  }
  void raise_to(Length start, Length width, Height target) {
    for (Length x = start; x < start + width; ++x) {
      at(x) = std::max(at(x), target);
    }
  }
  void reset() { std::fill(load_.begin(), load_.end(), 0); }

  [[nodiscard]] BestPosition min_peak_position(Length width) const {
    std::optional<BestPosition> best;
    for (Length x = 0; x + width <= strip_width(); ++x) {
      const auto first = load_.begin() + x;
      const Height m = *std::max_element(first, first + width);
      if (!best || m < best->window_max) best = BestPosition{x, m};
    }
    return *best;
  }

  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const {
    for (Length x = 0; x + width <= strip_width(); ++x) {
      const auto first = load_.begin() + x;
      if (*std::max_element(first, first + width) + height <= budget) return x;
    }
    return std::nullopt;
  }

  [[nodiscard]] Length strip_width() const {
    return static_cast<Length>(load_.size());
  }
  [[nodiscard]] Height load_at(Length x) const {
    return load_[static_cast<std::size_t>(x)];
  }

 private:
  Height& at(Length x) { return load_[static_cast<std::size_t>(x)]; }

  std::vector<Height> load_;
};

/// One profile of each backend kind next to the reference, fed the same
/// operations.
struct ReferencedProfiles {
  explicit ReferencedProfiles(Length w)
      : reference(w),
        profiles{make_profile_backend(ProfileBackendKind::kDense, w),
                 make_profile_backend(ProfileBackendKind::kSparse, w)} {}

  /// Builds the profile whose column x carries columns[x].
  explicit ReferencedProfiles(const std::vector<Height>& columns)
      : ReferencedProfiles(static_cast<Length>(columns.size())) {
    for (std::size_t x = 0; x < columns.size(); ++x) {
      add(static_cast<Length>(x), 1, columns[x]);
    }
  }

  void add(Length start, Length width, Height height) {
    reference.add(start, width, height);
    for (const auto& p : profiles) p->add(start, width, height);
  }
  void remove(Length start, Length width, Height height) {
    reference.add(start, width, -height);
    for (const auto& p : profiles) p->remove(start, width, height);
  }
  void raise_to(Length start, Length width, Height target) {
    reference.raise_to(start, width, target);
    for (const auto& p : profiles) p->raise_to(start, width, target);
  }
  void reset() {
    reference.reset();
    for (const auto& p : profiles) p->reset();
  }

  /// Every backend's min_peak_position for `width` equals the reference's.
  void expect_matches(Length width, const std::string& label) const {
    const BestPosition want = reference.min_peak_position(width);
    for (const auto& p : profiles) {
      const BestPosition got = p->min_peak_position(width);
      EXPECT_EQ(got.start, want.start)
          << label << " width=" << width << " on " << kind_of(*p);
      EXPECT_EQ(got.window_max, want.window_max)
          << label << " width=" << width << " on " << kind_of(*p);
    }
  }
  /// Every backend's first_fit equals the reference's.
  void expect_first_fit_matches(Length width, Height height, Height budget,
                                const std::string& label) const {
    const std::optional<Length> want =
        reference.first_fit(width, height, budget);
    for (const auto& p : profiles) {
      EXPECT_EQ(p->first_fit(width, height, budget), want)
          << label << " width=" << width << " height=" << height
          << " budget=" << budget << " on " << kind_of(*p);
    }
  }
  /// expect_matches for every width 1..W, plus the loads column by column.
  void expect_matches_all_widths(const std::string& label) const {
    for (Length width = 1; width <= reference.strip_width(); ++width) {
      expect_matches(width, label);
    }
    for (const auto& p : profiles) {
      for (Length x = 0; x < reference.strip_width(); ++x) {
        ASSERT_EQ(p->load_at(x), reference.load_at(x))
            << label << " x=" << x << " on " << kind_of(*p);
      }
    }
  }

  static std::string kind_of(const ProfileBackend& p) {
    return dynamic_cast<const StripOccupancy*>(&p) != nullptr ? "dense"
                                                              : "sparse";
  }

  ArrayProfile reference;
  std::array<std::unique_ptr<ProfileBackend>, 2> profiles;
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
  profiles.reset();
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
          if (rng.chance(0.2)) profiles.reset();
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

// --- randomized operation-level equivalence -------------------------------

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, AgreeOnRandomOperations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 17);
  // Params below 24 alternate between narrow strips (W <= 60) and
  // medium ones; the rest are wide strips, W in [2^16, 2^20], with few
  // items and a mix of narrow and strip-wide windows.
  const bool wide = GetParam() >= 24;
  const Length w = wide                    ? rng.uniform(1 << 16, 1 << 20)
                   : GetParam() % 2 == 0 ? rng.uniform(2, 60)
                                         : rng.uniform(500, 4000);
  const int ops = wide ? 48 : 160;
  const auto dense = make_profile_backend(ProfileBackendKind::kDense, w);
  const auto sparse = make_profile_backend(ProfileBackendKind::kSparse, w);
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
        dense->add(start, width, h);
        sparse->add(start, width, h);
        placed.push_back({start, width, h});
        break;
      }
      case 2: {  // remove a previously placed item
        if (placed.empty()) break;
        const auto k = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(placed.size()) - 1));
        dense->remove(placed[k].start, placed[k].width, placed[k].height);
        sparse->remove(placed[k].start, placed[k].width, placed[k].height);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // raise_to (skyline lift)
        const Height target = rng.uniform(0, 20);
        dense->raise_to(start, width, target);
        sparse->raise_to(start, width, target);
        placed.clear();  // removes are no longer meaningful
        break;
      }
      case 4: {  // first_fit
        const Height h = rng.uniform(1, 12);
        const Height budget = rng.uniform(0, 30);
        EXPECT_EQ(dense->first_fit(width, h, budget),
                  sparse->first_fit(width, h, budget))
            << "w=" << w << " width=" << width << " h=" << h
            << " budget=" << budget;
        break;
      }
      case 5: {  // min_peak_position
        const auto a = dense->min_peak_position(width);
        const auto b = sparse->min_peak_position(width);
        EXPECT_EQ(a.start, b.start) << "w=" << w << " width=" << width;
        EXPECT_EQ(a.window_max, b.window_max);
        break;
      }
      case 6: {  // reset to the empty profile
        dense->reset();
        sparse->reset();
        placed.clear();
        break;
      }
    }
    EXPECT_EQ(window_max(*dense, start, width),
              window_max(*sparse, start, width));
    EXPECT_EQ(dense->next_change(start), sparse->next_change(start));
  }
  EXPECT_EQ(dense->peak(), sparse->peak());
  // The whole profile, run by run.
  for (Length x = 0; x < w; x = dense->next_change(x)) {
    ASSERT_EQ(dense->load_at(x), sparse->load_at(x)) << "x=" << x;
    ASSERT_EQ(dense->next_change(x), sparse->next_change(x)) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BackendEquivalence, ::testing::Range(0, 40));

// --- algorithm-level equivalence: same packings on either backend ---------
//
// Random instances, then the nine golden-corpus instances.  kAuto resolves
// sparse on every one, so this is where the golden corpus is packed on the
// dense profile: the portfolio must give the same packing and winner on
// kDense, kSparse and kAuto.

constexpr int kRandomEquivalenceCases = 12;

/// Parameters below kRandomEquivalenceCases seed a random instance; the
/// rest index the golden corpus.
Instance equivalence_instance(int param) {
  if (param >= kRandomEquivalenceCases) {
    return gen::golden_corpus()
        .at(static_cast<std::size_t>(param - kRandomEquivalenceCases))
        .instance;
  }
  Rng rng(static_cast<std::uint64_t>(param) * 7121 + 3);
  const Length w = rng.uniform(8, 200);
  return gen::random_uniform(static_cast<std::size_t>(rng.uniform(4, 30)), w,
                             std::min<Length>(w, 40), 15, rng);
}

class AlgorithmBackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmBackendEquivalence, PlacementAlgorithmsAgree) {
  const Instance inst = equivalence_instance(GetParam());

  EXPECT_EQ(algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingHeight,
                                     ProfileBackendKind::kDense),
            algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingHeight,
                                     ProfileBackendKind::kSparse));
  EXPECT_EQ(algo::first_fit_search(inst, ProfileBackendKind::kDense),
            algo::first_fit_search(inst, ProfileBackendKind::kSparse));
  EXPECT_EQ(sp::bottom_left(inst, ProfileBackendKind::kDense).position,
            sp::bottom_left(inst, ProfileBackendKind::kSparse).position);
  std::string dense_winner;
  const Packing dense =
      algo::best_of_portfolio(inst, &dense_winner, ProfileBackendKind::kDense);
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kSparse, ProfileBackendKind::kAuto}) {
    std::string winner;
    EXPECT_EQ(algo::best_of_portfolio(inst, &winner, kind), dense)
        << to_string(kind);
    EXPECT_EQ(winner, dense_winner) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, AlgorithmBackendEquivalence,
                         ::testing::Range(0, kRandomEquivalenceCases));
INSTANTIATE_TEST_SUITE_P(Golden, AlgorithmBackendEquivalence,
                         ::testing::Range(kRandomEquivalenceCases,
                                          kRandomEquivalenceCases + 9));


// --- the solve-cold cells: narrow strips that kAuto used to run dense ------
//
// 6 families x n {100, 400} x W {256, 1024, 2048}, the grid of e2ebench's
// solve-cold workload, one seed per cell.  Every cell but W = 2048 with
// n = 100 has W <= 16 n and so ran on the dense profile before kAuto
// resolved sparse everywhere; the witness portfolio must give the same
// packing and winner on all three kinds.

struct SolveColdCell {
  const char* family;
  std::size_t n;
  Length w;
};

std::vector<SolveColdCell> solve_cold_cells() {
  std::vector<SolveColdCell> cells;
  for (const char* family :
       {"uniform", "tall", "wide", "perfect", "correlated", "smart_grid"}) {
    for (const std::size_t n : {100, 400}) {
      for (const Length w : {256, 1024, 2048}) cells.push_back({family, n, w});
    }
  }
  return cells;
}

Instance solve_cold_instance(const SolveColdCell& cell, Rng& rng) {
  const std::string family = cell.family;
  const Length w = cell.w;
  if (family == "uniform") return gen::random_uniform(cell.n, w, w / 4, 100, rng);
  if (family == "tall") return gen::tall_items(cell.n, w, 100, rng);
  if (family == "wide") return gen::wide_items(cell.n, w, 20, rng);
  if (family == "perfect") return gen::perfect_packing(cell.n, w, 200, rng);
  if (family == "correlated") return gen::correlated(cell.n, w, w / 4, 100, rng);
  return gen::smart_grid(cell.n, w, rng);
}

class SolveColdCellEquivalence
    : public ::testing::TestWithParam<SolveColdCell> {};

TEST_P(SolveColdCellEquivalence, PortfolioAgreesOnEveryBackend) {
  const SolveColdCell& cell = GetParam();
  Rng rng(static_cast<std::uint64_t>(cell.w) * 1009 + cell.n);
  const Instance inst = solve_cold_instance(cell, rng);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, inst.strip_width(),
                            inst.size()),
            ProfileBackendKind::kSparse);

  std::string dense_winner;
  const Packing dense =
      algo::best_of_portfolio(inst, &dense_winner, ProfileBackendKind::kDense);
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kSparse, ProfileBackendKind::kAuto}) {
    std::string winner;
    EXPECT_EQ(algo::best_of_portfolio(inst, &winner, kind), dense)
        << to_string(kind);
    EXPECT_EQ(winner, dense_winner) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolveColdCellEquivalence, ::testing::ValuesIn(solve_cold_cells()),
    [](const ::testing::TestParamInfo<SolveColdCell>& info) {
      return std::string(info.param.family) + "_n" +
             std::to_string(info.param.n) + "_W" +
             std::to_string(info.param.w);
    });

}  // namespace
}  // namespace dsp
