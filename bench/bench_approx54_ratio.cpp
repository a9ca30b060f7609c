// E7 + E13 — Theorem 5: measured approximation ratio of the (5/4+eps)
// pipeline.  Small instances: ratio vs certified exact optimum.  Large
// instances: ratio vs the combined lower bound (and vs the exact optimum
// H on the perfect-packing family, where OPT is known at any scale).
// Also reports the medium-item overhead (Lemmas 13/14).
//
// Every table shows two peaks: the returned one (the best of the witness
// and the pipeline) and the pipeline's own, the best peak of
// approx::bisect over the run's [LB, UB].  The Theorem-5 guarantee is a
// claim about the pipeline, so bisect runs on every instance, including
// the certified answers where solve54 itself makes no attempt (the witness
// peak is at most floor((5/4 + eps) LB), so it proves the bound on its
// own); those are counted separately.

#include "bench_common.hpp"
#include "approx/solve54.hpp"
#include "exact/dsp_exact.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using dsp::Height;

/// The pipeline's own search on a default-parameter run's bounds, whether
/// or not solve54 searched.
dsp::approx::Bisection pipeline_of(const dsp::Instance& inst,
                                   const dsp::approx::Approx54Result& r) {
  return dsp::approx::bisect(inst, r.report.lower_bound, r.report.upper_bound,
                             dsp::approx::Approx54Params{}.epsilon);
}

/// Certified runs (the witness returned with no attempt) out of all runs.
struct CertifiedCount {
  std::size_t certified = 0;
  std::size_t runs = 0;

  void add(const dsp::approx::Approx54Result& r) {
    ++runs;
    if (r.report.attempts == 0) ++certified;
  }
  [[nodiscard]] std::string to_string() const {
    return std::to_string(certified) + "/" + std::to_string(runs);
  }
};

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
  CertifiedCount exact_certified;
  CertifiedCount family_certified;
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
    std::vector<Height> own(cases.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (std::size_t i = 0; i < cases.size(); ++i) {
      results[i] = approx::solve54(cases[i].inst);
      own[i] = pipeline_of(cases[i].inst, results[i]).peak;
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      returned.add(bench::ratio(results[i].peak, cases[i].opt));
      pipeline.add(bench::ratio(own[i], cases[i].opt));
      exact_certified.add(results[i]);
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
              << " instances; " << exact_certified.to_string()
              << " certified):\n";
    table.print(std::cout);
  }

  {
    Table table({"family", "n", "peak", "pipeline peak", "reference", "ratio",
                 "pipeline ratio", "medium area%", "LP used", "certified"});
    Rng rng(8);
    for (const auto& family : bench::families()) {
      for (const std::size_t n : {40ul, 120ul}) {
        const Instance inst = family.make(n, rng);
        const approx::Approx54Result r = approx::solve54(inst);
        // Perfect-packing instances have OPT == area/W exactly.
        const bool exact_ref = family.name == "perfect";
        const Height reference = exact_ref ? area_lower_bound(inst)
                                           : r.report.lower_bound;
        const approx::Bisection search = pipeline_of(inst, r);
        const Height own = search.peak;
        // Medium area and LP use of the pipeline's accepted attempt.
        std::int64_t medium_area = 0;
        bool lp_used = false;
        if (search.accepted) {
          const approx::Classification& cls = search.accepted->cls;
          medium_area =
              cls.area_of(approx::Category::kMedium, inst) +
              cls.area_of(approx::Category::kMediumVertical, inst);
          lp_used = search.accepted->fill.lp_solved;
        }
        family_certified.add(r);
        table.begin_row()
            .cell(family.name + (exact_ref ? " (OPT known)" : ""))
            .cell(n)
            .cell(r.peak)
            .cell(own)
            .cell(reference)
            .cell(bench::ratio(r.peak, reference), 4)
            .cell(bench::ratio(own, reference), 4)
            .cell(100.0 * static_cast<double>(medium_area) /
                      static_cast<double>(inst.total_area()),
                  2)
            .cell(lp_used ? "yes" : "no")
            .cell(r.report.attempts == 0 ? "yes" : "no");
      }
    }
    std::cout << "\nvs lower bound / known optimum (larger families; "
              << family_certified.to_string()
              << " certified; medium area and LP used are the "
                 "pipeline's):\n";
    table.print(std::cout);
  }

  {
    // Epsilon sweep on one family: the eps knob trades budget for height.
    // The pipeline's attempts are bisect's, made whether or not the run
    // was certified.
    Table table({"eps", "peak", "LB", "ratio", "certified",
                 "pipeline attempts"});
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
          .cell(r.report.attempts == 0 ? "yes" : "no")
          .cell(approx::bisect(inst, r.report.lower_bound,
                               r.report.upper_bound, eps)
                    .attempts);
    }
    std::cout << "\nepsilon sweep (uniform, n=120):\n";
    table.print(std::cout);
  }
  std::cout << "\npaper: ratio (5/4+eps)*OPT; measured vs the exact optimum: "
               "the returned peak is within the bound on "
            << returned.within << "/" << returned.runs
            << " runs, the pipeline's own peak on " << pipeline.within << "/"
            << pipeline.runs << "; " << exact_certified.certified << " + "
            << family_certified.certified
            << " runs were certified (witness peak <= floor((5/4 + eps) LB), "
               "returned with no attempt).\n";
  return 0;
}
