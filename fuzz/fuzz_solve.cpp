// libFuzzer harness for the solvers behind the wire loader (DESIGN.md,
// "Static analysis" → fuzzing).
//
// fuzz_load_instance proves that ingest rejects garbage; this harness
// takes whatever ingest accepts and runs solve54 (the serve pipeline), its
// portfolio witness and its bisection on it, so a legal request that
// drives a solver into an overflow, an infeasible packing or a peak below
// its own lower bound surfaces as a finding.  Per
// accepted input (at most kMaxFuzzItems items, so one input cannot run for
// minutes):
//
//   - every portfolio member, the portfolio witness and solve54 each
//     return a feasible packing whose peak is the reported one;
//   - combined_lower_bound <= either peak, and solve54's peak <= its
//     report's upper bound (the witness peak);
//   - bisect(LB, UB, 1/4) returns a feasible packing whose peak is its
//     reported peak;
//   - solve54 makes no attempt exactly when the witness is certified
//     (UB <= floor((5/4 + eps) LB)); a certified answer peaks at the
//     witness's peak, any other at min(witness peak, bisect's peak);
//   - solve54's winner is the witness member's name when it returns the
//     witness's peak, and "pipeline" when bisect's peak is lower;
//   - for n <= 7 and W <= 16, solve54's peak <= floor((5/4 + eps) OPT)
//     against a proven exact::min_peak (Theorem 5 on the returned peak).
//
// InvalidInput from the loader is the expected rejection; any other
// exception, a signal or a sanitizer report is a finding.  Build with
// -DDSP_FUZZ=ON (see fuzz_load_instance.cpp for the two toolchains).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "core/packing.hpp"
#include "exact/dsp_exact.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"
#include "util/fraction.hpp"

namespace {

constexpr std::size_t kMaxFuzzItems = 64;
constexpr std::size_t kMaxExactItems = 7;
constexpr dsp::Length kMaxExactWidth = 16;

[[noreturn]] void finding(const dsp::Instance& instance, const char* what) {
  std::fprintf(stderr, "fuzz_solve: %s on %s\n", what,
               instance.summary().c_str());
  std::abort();
}

/// The packing is feasible and peaks at `peak`.
void check_packing(const dsp::Instance& instance, const dsp::Packing& packing,
                   dsp::Height peak, const char* engine) {
  if (const auto error = dsp::feasibility_error(instance, packing)) {
    std::fprintf(stderr, "fuzz_solve: %s: %s\n", engine, error->c_str());
    finding(instance, "infeasible packing");
  }
  if (dsp::peak_height(instance, packing) != peak) {
    std::fprintf(stderr, "fuzz_solve: %s\n", engine);
    finding(instance, "reported peak is not the packing's peak");
  }
}

/// The instance ingest accepts, or nullopt for a rejected or oversized
/// input.
[[nodiscard]] std::optional<dsp::Instance> load(const std::uint8_t* data,
                                                std::size_t size) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const dsp::service::WireInstance wire =
        dsp::service::load_instance(is, "fuzz input");
    if (wire.items.size() > kMaxFuzzItems) return std::nullopt;
    return wire.to_instance();
  } catch (const dsp::InvalidInput&) {
    return std::nullopt;  // the documented rejection path
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::optional<dsp::Instance> loaded = load(data, size);
  if (!loaded) return 0;
  const dsp::Instance& instance = *loaded;

  const dsp::Height lower = dsp::combined_lower_bound(instance);
  std::vector<dsp::algo::Scored> earlier;
  for (const dsp::algo::NamedAlgorithm& member :
       dsp::algo::baseline_portfolio()) {
    dsp::algo::Scored result = member.run_scored(instance, lower, earlier);
    check_packing(instance, result.packing, result.peak, member.name.c_str());
    earlier.push_back(std::move(result));
  }
  std::string witness_winner;
  const dsp::algo::Scored witness =
      dsp::algo::best_of_portfolio(instance, lower, &witness_winner);
  check_packing(instance, witness.packing, witness.peak, "portfolio");
  const dsp::Fraction epsilon(1, 4);
  const dsp::approx::Approx54Result solved =
      dsp::approx::solve54(instance, {epsilon});
  // solve54's step 1 runs the same portfolio: its upper bound is the
  // witness's peak.
  const dsp::Height upper = solved.report.upper_bound;
  if (upper != witness.peak) {
    finding(instance, "solve54 upper bound is not the witness peak");
  }
  check_packing(instance, solved.packing, solved.peak, "solve54");
  if (solved.report.lower_bound != lower) {
    finding(instance, "solve54 lower bound differs");
  }
  if (solved.peak < lower || solved.peak > upper) {
    finding(instance, "solve54 peak outside [LB, witness peak]");
  }

  const dsp::approx::Bisection search =
      dsp::approx::bisect(instance, lower, upper, epsilon);
  check_packing(instance, search.packing, search.peak, "bisect");
  const bool certified =
      upper <= dsp::floor_mul(lower, dsp::Fraction(5, 4) + epsilon);
  if ((solved.report.attempts == 0) != certified) {
    finding(instance, certified ? "solve54 searched past a certified witness"
                                : "solve54 skipped the search uncertified");
  }
  if (certified ? solved.peak != upper
                : solved.peak != std::min(upper, search.peak)) {
    finding(instance, certified
                          ? "certified solve54 peak is not the witness peak"
                          : "solve54 peak is not min(witness, bisect)");
  }
  if (solved.winner !=
      (solved.peak < upper ? std::string("pipeline") : witness_winner)) {
    finding(instance, "solve54 winner names neither the witness member nor "
                      "a strictly better pipeline");
  }

  if (instance.size() <= kMaxExactItems &&
      instance.strip_width() <= kMaxExactWidth) {
    const dsp::exact::OptResult opt =
        dsp::exact::min_peak(instance, {.max_nodes = 2'000'000,
                                        .max_seconds = 2.0});
    if (opt.proven_optimal &&
        solved.peak > dsp::floor_mul(opt.peak,
                                     dsp::Fraction(5, 4) + epsilon)) {
      finding(instance, "solve54 peak above (5/4 + eps) OPT");
    }
  }
  return 0;
}
