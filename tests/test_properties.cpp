#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "core/packing.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "gen/smart_grid.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "theorem5_corpus.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// Randomized invariants over every generator family x every portfolio
// algorithm x solve54: feasibility, peak bookkeeping, witness domination.
// ---------------------------------------------------------------------------

struct GenFamily {
  const char* name;
  Instance (*make)(Rng& rng);
};

void PrintTo(const GenFamily& family, std::ostream* os) { *os << family.name; }

Instance make_uniform(Rng& rng) {
  return gen::random_uniform(20, 32, 16, 8, rng);
}
Instance make_tall(Rng& rng) { return gen::tall_items(16, 32, 12, rng); }
Instance make_wide(Rng& rng) { return gen::wide_items(14, 32, 6, rng); }
Instance make_equal_width(Rng& rng) {
  return gen::equal_width(18, 30, 5, 8, rng);
}
Instance make_correlated(Rng& rng) {
  return gen::correlated(18, 32, 16, 8, rng);
}
Instance make_perfect(Rng& rng) {
  return gen::perfect_packing(16, 24, 12, rng);
}
Instance make_smart_grid(Rng& rng) { return gen::smart_grid(16, 96, rng); }
Instance make_gap(Rng& rng) {
  // 1-3 side-by-side copies so the seed axis varies the instance (the
  // certified 5/4 gap only holds for copies == 1; these properties do not
  // depend on it).
  return gen::gap_instance_replicated(
      static_cast<std::size_t>(rng.uniform(1, 3)));
}
Instance make_hardness(Rng& rng) {
  return gen::planted_yes(2, 16, rng).instance;
}

const GenFamily kFamilies[] = {
    {"uniform", make_uniform},       {"tall", make_tall},
    {"wide", make_wide},             {"equal-width", make_equal_width},
    {"correlated", make_correlated}, {"perfect", make_perfect},
    {"smart-grid", make_smart_grid}, {"gap", make_gap},
    {"hardness", make_hardness},
};

class GeneratorProperties
    : public ::testing::TestWithParam<std::tuple<GenFamily, int>> {};

// Every portfolio member returns a packing that validates, whose profile
// peak is consistent, and that never beats the combined lower bound.
TEST_P(GeneratorProperties, PortfolioPackingsValidate) {
  const auto& [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 17);
  const Instance instance = family.make(rng);
  const Height lb = combined_lower_bound(instance);
  for (const auto& algorithm : algo::baseline_portfolio()) {
    const Packing packing = algorithm.run(instance);
    ASSERT_NO_THROW(validate_packing(instance, packing))
        << family.name << "/" << algorithm.name;
    const LoadProfile profile(instance, packing);
    EXPECT_EQ(profile.peak(), peak_height(instance, packing))
        << family.name << "/" << algorithm.name;
    EXPECT_GE(profile.peak(), lb)
        << family.name << "/" << algorithm.name << " " << instance.summary();
  }
}

// solve54: the packing validates, the reported peak is the profile peak of
// the returned packing, and the result never exceeds the witness packing
// (upper_bound) nor undercuts the certified lower bound.
TEST_P(GeneratorProperties, Solve54ReportIsConsistent) {
  const auto& [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 29);
  const Instance instance = family.make(rng);
  const approx::Approx54Result result = approx::solve54(instance);
  ASSERT_NO_THROW(validate_packing(instance, result.packing))
      << family.name << " " << instance.summary();
  const LoadProfile profile(instance, result.packing);
  EXPECT_EQ(profile.peak(), result.peak) << family.name;
  EXPECT_LE(result.peak, result.report.upper_bound)
      << family.name << ": worse than its own witness";
  EXPECT_GE(result.peak, result.report.lower_bound) << family.name;
  EXPECT_GE(result.report.attempts, result.report.rounds) << family.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorProperties,
    ::testing::Combine(::testing::ValuesIn(kFamilies), ::testing::Range(0, 5)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Theorem 5 on the exact families at n = 10 (tests/theorem5_corpus.hpp; the
// n = 6 corpus runs in the fast test_approx54).
// ---------------------------------------------------------------------------

class Theorem5Exact10 : public ::testing::TestWithParam<theorem5::Ratchet> {};

TEST_P(Theorem5Exact10, ReturnedPeakWithinBoundAndPipelineMissesRatcheted) {
  theorem5::check_ratchet(GetParam());
}

// Recorded when the suite was introduced (1080 solves: 313 pipeline
// misses, 30 attempt(OPT) misses).  Lower a ceiling, never raise one.
INSTANTIATE_TEST_SUITE_P(
    Corpora, Theorem5Exact10,
    ::testing::Values(theorem5::Ratchet{"uniform", 10, 44, 0},
                      theorem5::Ratchet{"tall", 10, 7, 0},
                      theorem5::Ratchet{"wide", 10, 0, 0},
                      theorem5::Ratchet{"equal_width", 10, 108, 0},
                      theorem5::Ratchet{"correlated", 10, 42, 0},
                      theorem5::Ratchet{"perfect", 10, 112, 30}),
    [](const ::testing::TestParamInfo<theorem5::Ratchet>& info) {
      return std::string(info.param.corpus);
    });

// ---------------------------------------------------------------------------
// Error paths: rejection messages of the packing validators and the
// Approx54Params knobs.
// ---------------------------------------------------------------------------

Instance tiny_instance() { return Instance(6, {{3, 2}, {2, 3}}); }

template <typename Fn>
std::string message_of(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidInput& err) {
    return err.what();
  }
  return "";
}

TEST(ErrorPaths, LoadProfileExplainsWrongStartVectorSize) {
  const Instance instance = tiny_instance();
  const std::string msg = message_of(
      [&]() { (void)LoadProfile(instance, Packing{{0}}); });
  EXPECT_NE(msg.find("1 starts for 2 items"), std::string::npos) << msg;
}

TEST(ErrorPaths, LoadProfileExplainsItemOutOfStrip) {
  const Instance instance = tiny_instance();
  const std::string msg = message_of(
      [&]() { (void)LoadProfile(instance, Packing{{4, 0}}); });
  EXPECT_NE(msg.find("item 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("leaves the strip"), std::string::npos) << msg;
}

TEST(ErrorPaths, ValidatePackingThrowsWithExplanation) {
  const Instance instance = tiny_instance();
  EXPECT_NO_THROW(validate_packing(instance, Packing{{0, 3}}));
  const std::string size_msg = message_of(
      [&]() { validate_packing(instance, Packing{{0, 1, 2}}); });
  EXPECT_NE(size_msg.find("invalid packing"), std::string::npos) << size_msg;
  EXPECT_NE(size_msg.find("3 starts for 2 items"), std::string::npos)
      << size_msg;
  const std::string strip_msg = message_of(
      [&]() { validate_packing(instance, Packing{{0, -1}}); });
  EXPECT_NE(strip_msg.find("item 1"), std::string::npos) << strip_msg;
  EXPECT_NE(strip_msg.find("leaves the strip"), std::string::npos) << strip_msg;
}

TEST(ErrorPaths, Approx54ParamsRejectBadEpsilon) {
  const Instance instance = tiny_instance();
  approx::Approx54Params params;
  params.epsilon = Fraction(0);
  EXPECT_THROW((void)approx::solve54(instance, params), InvalidInput);
  params.epsilon = Fraction(2, 3);
  EXPECT_THROW((void)approx::solve54(instance, params), InvalidInput);
}

TEST(ErrorPaths, Solve54RejectsEmptyInstance) {
  const Instance empty(6, {});
  const std::string msg =
      message_of([&]() { (void)approx::solve54(empty); });
  EXPECT_NE(msg.find("solve54 on empty instance"), std::string::npos) << msg;
}

}  // namespace
}  // namespace dsp
