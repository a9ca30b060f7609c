#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "approx/pricing.hpp"
#include "approx/solve54.hpp"
#include "core/occupancy.hpp"
#include "core/profile.hpp"
#include "core/simd.hpp"
#include "core/window_maxima.hpp"
#include "gen/corpus.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// Pins the scalar backend for the lifetime of one scope; every test that
/// flips the dispatch restores it on exit so test order never matters.
class ScopedScalarPin {
 public:
  explicit ScopedScalarPin(bool pin) { simd::force_scalar(pin); }
  ~ScopedScalarPin() { simd::force_scalar(false); }
};

/// Adversarial buffer lengths around the 4-lane AVX2 width and the 8-element
/// unrolled body: below one vector, non-multiples, and exact multiples.
const std::vector<std::size_t>& adversarial_sizes() {
  static const std::vector<std::size_t> sizes = {1, 2,  3,  4,  5,  7,  8,
                                                 9, 15, 16, 17, 31, 64, 101};
  return sizes;
}

std::vector<Height> random_heights(std::size_t n, Rng& rng) {
  std::vector<Height> v(n);
  for (Height& h : v) {
    // Include negatives: the kernels run on budget-shifted values too.
    h = static_cast<Height>(rng.uniform(0, 2000)) - 1000;
  }
  return v;
}

TEST(Simd, DispatchReportsConsistently) {
  EXPECT_EQ(simd::avx2_active(), simd::avx2_compiled() &&
                                     simd::avx2_supported());
  EXPECT_EQ(simd::active_name(), simd::avx2_active() ? "avx2" : "scalar");
  {
    ScopedScalarPin pin(true);
    EXPECT_FALSE(simd::avx2_active());
    EXPECT_EQ(simd::active_name(), "scalar");
  }
  EXPECT_EQ(simd::avx2_active(), simd::avx2_compiled() &&
                                     simd::avx2_supported());
}

TEST(Simd, KernelsMatchScalarOnAdversarialSizes) {
  if (!simd::avx2_active()) {
    GTEST_SKIP() << "AVX2 backend not active; nothing to cross-check";
  }
  Rng rng(20260806);
  for (const std::size_t n : adversarial_sizes()) {
    for (int round = 0; round < 8; ++round) {
      const std::vector<Height> data = random_heights(n, rng);
      const Height probe = data[rng.uniform(0, n - 1)];
      const Height delta = static_cast<Height>(rng.uniform(0, 50)) - 25;
      std::vector<Height> simd_buf = data;
      std::vector<Height> scalar_buf = data;
      std::vector<Height> simd_out(n);
      std::vector<Height> scalar_out(n);
      const std::vector<Height> other = random_heights(n, rng);

      const Height max_v = simd::reduce_max(data.data(), n);
      const Height min_v = simd::reduce_min(data.data(), n);
      const std::size_t leq = simd::first_leq(data.data(), n, probe);
      const std::size_t eq = simd::first_eq(data.data(), n, probe);
      const std::size_t ne = simd::first_ne(data.data(), n, data[0]);
      simd::add_delta(simd_buf.data(), n, delta);
      simd::raise_floor(simd_buf.data(), n, probe);
      simd::max_combine(data.data(), other.data(), simd_out.data(), n);

      ScopedScalarPin pin(true);
      EXPECT_EQ(max_v, simd::reduce_max(data.data(), n));
      EXPECT_EQ(min_v, simd::reduce_min(data.data(), n));
      EXPECT_EQ(leq, simd::first_leq(data.data(), n, probe));
      EXPECT_EQ(eq, simd::first_eq(data.data(), n, probe));
      EXPECT_EQ(ne, simd::first_ne(data.data(), n, data[0]));
      simd::add_delta(scalar_buf.data(), n, delta);
      simd::raise_floor(scalar_buf.data(), n, probe);
      simd::max_combine(data.data(), other.data(), scalar_out.data(), n);
      EXPECT_EQ(simd_buf, scalar_buf);
      EXPECT_EQ(simd_out, scalar_out);
    }
  }
}

TEST(Simd, SearchKernelsHandleNoMatch) {
  const std::vector<Height> data = {5, 5, 5, 5, 5, 5, 5};
  EXPECT_EQ(simd::first_leq(data.data(), data.size(), 4), data.size());
  EXPECT_EQ(simd::first_eq(data.data(), data.size(), 4), data.size());
  EXPECT_EQ(simd::first_ne(data.data(), data.size(), 5), data.size());
  EXPECT_EQ(simd::first_leq(data.data(), 0, 100), 0u);
  EXPECT_EQ(simd::first_eq(data.data(), 0, 5), 0u);
  EXPECT_EQ(simd::first_ne(data.data(), 0, 4), 0u);
}

/// Reference sliding-window maxima: the classical monotone deque, the
/// implementation the block two-scan replaced.
std::vector<Height> deque_window_maxima(const std::vector<Height>& load,
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

TEST(WindowMaxima, MatchesMonotoneDequeReference) {
  Rng rng(20260807);
  WindowMaximaScratch scratch;
  for (const std::size_t n : adversarial_sizes()) {
    const std::vector<Height> load = random_heights(n, rng);
    for (Length width = 1; width <= static_cast<Length>(n); ++width) {
      const std::vector<Height> expected = deque_window_maxima(load, width);
      const std::span<const Height> got =
          sliding_window_maxima(load, width, scratch);
      ASSERT_EQ(got.size(), expected.size()) << "n=" << n << " w=" << width;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "n=" << n << " w=" << width << " x=" << i;
      }
    }
  }
}

TEST(WindowMaxima, ScalarAndSimdAgree) {
  if (!simd::avx2_active()) {
    GTEST_SKIP() << "AVX2 backend not active; nothing to cross-check";
  }
  Rng rng(20260808);
  WindowMaximaScratch scratch;
  for (const std::size_t n : {5u, 33u, 128u, 1001u}) {
    const std::vector<Height> load = random_heights(n, rng);
    for (const Length width :
         {Length{1}, Length{3}, Length{4}, static_cast<Length>(n / 2),
          static_cast<Length>(n)}) {
      if (width < 1) continue;
      const std::span<const Height> simd_span =
          sliding_window_maxima(load, width, scratch);
      const std::vector<Height> simd_out(simd_span.begin(), simd_span.end());
      ScopedScalarPin pin(true);
      const std::span<const Height> scalar_span =
          sliding_window_maxima(load, width, scratch);
      const std::vector<Height> scalar_out(scalar_span.begin(),
                                           scalar_span.end());
      EXPECT_EQ(simd_out, scalar_out) << "n=" << n << " w=" << width;
    }
  }
}

TEST(StripOccupancy, ResetMatchesFreshInstance) {
  StripOccupancy used(64);
  used.add(3, 10, 7);
  used.raise_to(20, 8, 12);
  used.reset();
  const StripOccupancy fresh(64);
  EXPECT_EQ(used.peak(), fresh.peak());
  for (Length x = 0; x < 64; ++x) {
    ASSERT_EQ(used.load_at(x), fresh.load_at(x)) << "x=" << x;
  }
  // And the reset profile behaves like new for the searches.
  used.add(0, 4, 5);
  EXPECT_EQ(used.first_fit(4, 1, 3), std::optional<Length>(4));
  EXPECT_EQ(used.min_peak_position(4).start, 4);
}

TEST(ProfileBackends, ResetMatchesFreshInstance) {
  for (const ProfileBackendKind kind :
       {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
    const auto used = make_profile_backend(kind, 48);
    used->add(1, 9, 4);
    used->raise_to(30, 10, 9);
    used->reset();
    const auto fresh = make_profile_backend(kind, 48);
    EXPECT_EQ(used->peak(), fresh->peak());
    for (Length x = 0; x < 48; ++x) {
      ASSERT_EQ(used->load_at(x), fresh->load_at(x))
          << used->name() << " x=" << x;
    }
  }
}

TEST(Pricing, ScratchReuseIsEquivalent) {
  using approx::PricedConfig;
  using approx::PricingScratch;
  using approx::price_knapsack;
  const std::vector<Height> heights = {9, 7, 4, 3, 1};
  Rng rng(20260809);
  PricingScratch reused;
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values(heights.size());
    for (double& v : values) {
      v = static_cast<double>(rng.uniform(0, 1000)) / 100.0;
    }
    const auto capacity = static_cast<Height>(rng.uniform(1, 64));
    PricingScratch fresh;
    const PricedConfig a = price_knapsack(heights, values, capacity, reused);
    const PricedConfig b = price_knapsack(heights, values, capacity, fresh);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.exact, b.exact);
  }
}

/// Packings stay bit-identical across the two SIMD backends x both profile
/// backends, on all nine golden generator families.
TEST(Solve54, PackingsBitIdenticalAcrossSimdAndBackends) {
  const std::vector<gen::GoldenInstance> corpus = gen::golden_corpus();
  ASSERT_EQ(corpus.size(), 9u);
  for (const gen::GoldenInstance& golden : corpus) {
    std::vector<Length> reference;
    for (const ProfileBackendKind backend :
         {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
      for (const bool scalar : {false, true}) {
        ScopedScalarPin pin(scalar);
        approx::Approx54Params params;
        params.backend = backend;
        const approx::Approx54Result result =
            approx::solve54(golden.instance, params);
        if (reference.empty()) {
          reference = result.packing.start;
        } else {
          EXPECT_EQ(result.packing.start, reference)
              << golden.name << " backend="
              << (backend == ProfileBackendKind::kDense ? "dense" : "sparse")
              << " simd=" << (scalar ? "scalar" : "active");
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsp
