// E7 + E13 — Theorem 5: measured approximation ratio of the (5/4+eps)
// pipeline.  Small instances: ratio vs certified exact optimum.  Large
// instances: ratio vs the combined lower bound (and vs the exact optimum
// H on the perfect-packing family, where OPT is known at any scale).
// Also reports the medium-item overhead (Lemmas 13/14).
//
// Every table shows two peaks: the returned one (the best of the witness
// and the pipeline) and report.pipeline_peak, the best the pipeline's own
// attempts reached.  The Theorem-5 guarantee is a claim about the
// pipeline; "-" marks runs where no attempt was made (the witness already
// met the lower bound).

#include <limits>
#include <optional>

#include "bench_common.hpp"
#include "approx/solve54.hpp"
#include "exact/dsp_exact.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using dsp::Height;

/// The pipeline's own peak, or nullopt when no attempt ran.
std::optional<Height> pipeline_peak(const dsp::approx::Approx54Result& r) {
  if (r.report.pipeline_peak == std::numeric_limits<Height>::max()) {
    return std::nullopt;
  }
  return r.report.pipeline_peak;
}

/// Average, worst and within-bound count over a list of ratios.
struct RatioSummary {
  std::size_t runs = 0;
  double sum = 0.0;
  double worst = 0.0;
  std::size_t within = 0;

  void add(double ratio) {
    ++runs;
    sum += ratio;
    worst = std::max(worst, ratio);
    if (ratio <= 1.5 + 1e-9) ++within;  // (5/4 + eps=1/4)
  }
  [[nodiscard]] double average() const {
    return runs == 0 ? 0.0 : sum / static_cast<double>(runs);
  }
};

}  // namespace

int main() {
  using namespace dsp;
  std::cout << "E7: (5/4+eps) measured ratios (Theorem 5)\n\n";

  RatioSummary returned;
  RatioSummary pipeline;
  {
    // Exact reference (small instances).
    Rng rng(7);
    struct Case {
      Instance inst;
      Height opt;
    };
    std::vector<Case> cases;
    for (int round = 0; round < 40; ++round) {
      const Length w = rng.uniform(4, 9);
      Instance inst = gen::random_uniform(
          static_cast<std::size_t>(rng.uniform(3, 7)), w,
          std::min<Length>(6, w), 5, rng);
      const auto opt = exact::min_peak(inst);
      if (opt.proven_optimal) cases.push_back({std::move(inst), opt.peak});
    }
    std::vector<approx::Approx54Result> results(cases.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (std::size_t i = 0; i < cases.size(); ++i) {
      results[i] = approx::solve54(cases[i].inst);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      returned.add(bench::ratio(results[i].peak, cases[i].opt));
      if (const std::optional<Height> peak = pipeline_peak(results[i])) {
        pipeline.add(bench::ratio(*peak, cases[i].opt));
      }
    }
    Table table({"peak", "runs", "avg ratio", "worst ratio", "within 5/4+eps"});
    for (const bool own : {false, true}) {
      const RatioSummary& summary = own ? pipeline : returned;
      table.begin_row()
          .cell(own ? "pipeline" : "returned")
          .cell(summary.runs)
          .cell(summary.average(), 4)
          .cell(summary.worst, 4)
          .cell(std::to_string(summary.within) + "/" +
                std::to_string(summary.runs));
    }
    std::cout << "vs exact optimum (n<=6, " << cases.size()
              << " instances; pipeline rows count runs with an attempt):\n";
    table.print(std::cout);
  }

  {
    Table table({"family", "n", "peak", "pipeline peak", "reference", "ratio",
                 "pipeline ratio", "medium area%", "LP used"});
    Rng rng(8);
    for (const auto& family : bench::families()) {
      for (const std::size_t n : {40ul, 120ul}) {
        const Instance inst = family.make(n, rng);
        const approx::Approx54Result r = approx::solve54(inst);
        // Perfect-packing instances have OPT == area/W exactly.
        const bool exact_ref = family.name == "perfect";
        const Height reference = exact_ref ? area_lower_bound(inst)
                                           : r.report.lower_bound;
        const std::optional<Height> own = pipeline_peak(r);
        table.begin_row()
            .cell(family.name + (exact_ref ? " (OPT known)" : ""))
            .cell(n)
            .cell(r.peak);
        if (own) {
          table.cell(*own);
        } else {
          table.cell("-");
        }
        table.cell(reference).cell(bench::ratio(r.peak, reference), 4);
        if (own) {
          table.cell(bench::ratio(*own, reference), 4);
        } else {
          table.cell("-");
        }
        table
            .cell(100.0 * static_cast<double>(r.report.medium_area) /
                      static_cast<double>(inst.total_area()),
                  2)
            .cell(r.report.lp_used ? "yes" : "no");
      }
    }
    std::cout << "\nvs lower bound / known optimum (larger families):\n";
    table.print(std::cout);
  }

  {
    // Epsilon sweep on one family: the eps knob trades budget for height.
    Table table({"eps", "peak", "LB", "ratio", "attempts"});
    Rng rng(9);
    const Instance inst = gen::random_uniform(120, 200, 100, 40, rng);
    for (const Fraction eps :
         {Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)}) {
      approx::Approx54Params params;
      params.epsilon = eps;
      const approx::Approx54Result r = approx::solve54(inst, params);
      table.begin_row()
          .cell(eps.to_string())
          .cell(r.peak)
          .cell(r.report.lower_bound)
          .cell(bench::ratio(r.peak, r.report.lower_bound), 4)
          .cell(r.report.attempts);
    }
    std::cout << "\nepsilon sweep (uniform, n=120):\n";
    table.print(std::cout);
  }
  std::cout << "\npaper: ratio (5/4+eps)*OPT; measured vs the exact optimum: "
               "the returned peak is within the bound on "
            << returned.within << "/" << returned.runs
            << " runs, the pipeline's own peak on " << pipeline.within << "/"
            << pipeline.runs << ".\n";
  return 0;
}
