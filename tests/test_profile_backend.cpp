#include <gtest/gtest.h>

#include <algorithm>
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
#include "sp/bottom_left.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// Whether `kind` builds StripOccupancy, the dense backend.
bool builds_dense(ProfileBackendKind kind, Length w, std::size_t n) {
  const auto profile = make_profile_backend(kind, w, n);
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
  EXPECT_TRUE(builds_dense(ProfileBackendKind::kDense, 10, 0));
  EXPECT_FALSE(builds_dense(ProfileBackendKind::kSparse, 10, 0));
}

TEST(ProfileBackend, AutoResolvesByShape) {
  // The crossover is W > 16 n, on both sides of the boundary.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 1600, 100),
            ProfileBackendKind::kDense);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 1601, 100),
            ProfileBackendKind::kSparse);
  // The solve-cold cells it moves: W = 2048 with n = 100 is sparse, while
  // W = 1024 with n = 100 and W = 2048 with n = 400 stay dense.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 2048, 100),
            ProfileBackendKind::kSparse);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 1024, 100),
            ProfileBackendKind::kDense);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 2048, 400),
            ProfileBackendKind::kDense);
  // Narrow golden-size strips stay dense.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 96, 24),
            ProfileBackendKind::kDense);
  // Wide, lightly covered strip: sparse.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 100000, 10),
            ProfileBackendKind::kSparse);
  // Wide but densely covered: dense.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 100000, 50000),
            ProfileBackendKind::kDense);
  // Concrete kinds resolve to themselves.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kDense, 100000, 10),
            ProfileBackendKind::kDense);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kSparse, 8, 10),
            ProfileBackendKind::kSparse);
  // No items: W > 16 * 0 on every strip, so even a narrow one is sparse
  // and nothing W-sized is allocated.
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 100000, 0),
            ProfileBackendKind::kSparse);
  EXPECT_EQ(resolve_backend(ProfileBackendKind::kAuto, 1, 0),
            ProfileBackendKind::kSparse);
  EXPECT_FALSE(builds_dense(ProfileBackendKind::kAuto, 100000, 0));
  // The factory follows the resolution on both sides of the crossover.
  EXPECT_TRUE(builds_dense(ProfileBackendKind::kAuto, 1600, 100));
  EXPECT_FALSE(builds_dense(ProfileBackendKind::kAuto, 1601, 100));
}

// --- unit cases, run on both kinds ----------------------------------------

class ProfileBackendOps : public ::testing::TestWithParam<ProfileBackendKind> {
 protected:
  // A concrete kind ignores the item count.
  [[nodiscard]] std::unique_ptr<ProfileBackend> make(Length w) const {
    return make_profile_backend(GetParam(), w, 0);
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
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 10, 0);
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
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 9, 0);
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
  const auto p = make_profile_backend(ProfileBackendKind::kSparse, 8, 0);
  p->add(2, 2, 5);
  p->raise_to(0, 6, 3);
  EXPECT_EQ(p->load_at(0), 3);
  EXPECT_EQ(p->load_at(2), 5);  // already above the target
  EXPECT_EQ(p->load_at(5), 3);
  EXPECT_EQ(p->load_at(6), 0);
  EXPECT_EQ(p->peak(), 5);
}

// --- randomized operation-level equivalence -------------------------------

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, AgreeOnRandomOperations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 17);
  // Params below 24 alternate between narrow strips (dense regime) and
  // medium ones; the rest are wide strips, W in [2^16, 2^20], with few
  // items and a mix of narrow and strip-wide windows.
  const bool wide = GetParam() >= 24;
  const Length w = wide                    ? rng.uniform(1 << 16, 1 << 20)
                   : GetParam() % 2 == 0 ? rng.uniform(2, 60)
                                         : rng.uniform(500, 4000);
  const int ops = wide ? 48 : 160;
  const auto dense = make_profile_backend(ProfileBackendKind::kDense, w, 0);
  const auto sparse = make_profile_backend(ProfileBackendKind::kSparse, w, 0);
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
// dense on every golden instance, so this is where the golden corpus is
// packed on the sparse profile: the portfolio must give the same packing
// and winner on kDense, kSparse and kAuto.

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

}  // namespace
}  // namespace dsp
