// E8 — Theorem 5's running time O(n log n) * W^{O_eps(1)}: measured scaling
// of the pipeline in n (items) and in W (pseudo-polynomial width), the
// n-scaling probe of the witness members, and the worst case of the
// run profile's min_peak_position.
//
//   bench_approx54_scaling [--smoke]
//
//   --smoke   n <= 400 and one repetition per cell (CI-friendly).
//
// Exits 1 if a solve54 packing is infeasible or peaks below the lower
// bound, or if the staircase search returns the wrong position.  Emits the
// human tables plus one JSON row per probe cell, per fitted slope and for
// the staircase (bench_common.hpp JsonRow format).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "bench_common.hpp"
#include "core/profile.hpp"

namespace {

using namespace dsp;

/// Median wall time of `reps` runs of `run`, in milliseconds.
double median_ms(int reps, const std::function<void()>& run) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    run();
    ms.push_back(watch.millis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Least-squares slope of log(y) against log(x): the measured exponent.
double log_log_slope(const std::vector<double>& x,
                     const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const auto k = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

/// The pipeline on uniform items (widths <= W/4, heights <= 100, the
/// e2ebench solve-cold "uniform" family) for n up to 3200, on a day at
/// minute resolution and on the widest strip the service accepts; every
/// witness member is also timed alone.  Returns false on a bad packing.
bool n_scaling_probe(bool smoke) {
  const int reps = smoke ? 1 : 3;
  const std::vector<algo::NamedAlgorithm> members = algo::baseline_portfolio();
  std::vector<std::string> header = {"n", "W", "solve54 ms"};
  for (const auto& member : members) header.push_back(member.name + " ms");
  Table table(header);
  for (const Length w : {Length{2048}, Length{1} << 20}) {
    std::vector<double> ns;
    std::vector<double> solve_ms;
    for (const std::size_t n : {100, 200, 400, 800, 1600, 3200}) {
      if (smoke && n > 400) continue;
      Rng rng(static_cast<std::uint64_t>(w) * 31 + n);
      const Instance inst = gen::random_uniform(n, w, w / 4, 100, rng);
      approx::Approx54Result result;
      const double ms =
          median_ms(reps, [&] { result = approx::solve54(inst); });
      const Height lb = combined_lower_bound(inst);
      if (feasibility_error(inst, result.packing) || result.peak < lb) {
        std::cout << "BAD PACKING: solve54 on n=" << n << " W=" << w << "\n";
        return false;
      }
      ns.push_back(static_cast<double>(n));
      solve_ms.push_back(ms);

      table.begin_row().cell(n).cell(w).cell(ms, 2);
      JsonRow row;
      machine_fields(row)
          .field("bench", "approx54_scaling")
          .field("probe", "n_scaling")
          .field("family", "uniform")
          .field("items", n)
          .field("strip_width", w)
          .field("solve54_ms", ms);
      // Each member alone (first-fit runs its own greedy-h), from the
      // lower bound computed above.
      for (const auto& member : members) {
        const double member_ms = median_ms(reps, [&] {
          static_cast<void>(member.run_scored(inst, lb, {}));
        });
        table.cell(member_ms, 2);
        row.field("member_ms." + member.name, member_ms);
      }
      row.print(std::cout);
    }
    const double slope = log_log_slope(ns, solve_ms);
    machine_fields(JsonRow())
        .field("bench", "approx54_scaling")
        .field("probe", "n_scaling_slope")
        .field("strip_width", w)
        .field("solve54_slope", slope)
        .print(std::cout);
    std::cout << "fitted log-log slope of solve54 ms in n at W=" << w << ": "
              << slope << "\n";
  }
  std::cout << "\nscaling in n, uniform items (w <= W/4, h <= 100), median of "
            << reps << " runs:\n";
  table.print(std::cout);
  return true;
}

/// min_peak_position on a descending staircase of 12,800 one-column runs
/// with a half-strip window: every start improves on the one before, the
/// case that makes a window rescan quadratic.  Returns false on a wrong
/// answer.
bool staircase_probe(bool smoke) {
  constexpr Length kRuns = 12800;
  constexpr Length kWindow = kRuns / 2;
  Profile profile(kRuns);
  for (Length x = 0; x < kRuns; ++x) profile.raise_to(x, 1, kRuns - x);
  const int calls = smoke ? 5 : 200;
  BestPosition best{};
  Stopwatch watch;
  for (int call = 0; call < calls; ++call) {
    best = profile.min_peak_position(kWindow);
  }
  const double us = 1000.0 * watch.millis() / calls;
  if (best.start != kRuns - kWindow || best.window_max != kWindow) {
    std::cout << "WRONG STAIRCASE ANSWER: start " << best.start << " max "
              << best.window_max << "\n";
    return false;
  }
  machine_fields(JsonRow())
      .field("bench", "approx54_scaling")
      .field("probe", "min_peak_position_staircase")
      .field("runs", kRuns)
      .field("window", kWindow)
      .field("us_per_call", us)
      .print(std::cout);
  std::cout << "\nmin_peak_position on a " << kRuns
            << "-run descending staircase, window " << kWindow << ": " << us
            << " us per call (mean of " << calls << ")\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_approx54_scaling [--smoke]\n";
      return 1;
    }
  }
  std::cout << "E8: (5/4+eps) running-time scaling (Theorem 5)\n\n";
  Rng rng(10);

  {
    Table table({"n", "W", "time (ms)", "time/n (us)"});
    for (const std::size_t n : {50ul, 100ul, 200ul, 400ul, 800ul}) {
      if (smoke && n > 400) continue;
      const Instance inst = gen::random_uniform(n, 256, 128, 32, rng);
      Stopwatch watch;
      const approx::Approx54Result r = approx::solve54(inst);
      const double ms = watch.millis();
      if (r.peak == 0) return 1;
      table.begin_row()
          .cell(n)
          .cell(Length{256})
          .cell(ms, 1)
          .cell(1000.0 * ms / static_cast<double>(n), 1);
    }
    std::cout << "scaling in n (W fixed):\n";
    table.print(std::cout);
  }
  {
    Table table({"W", "n", "time (ms)", "time/W (us)"});
    for (const Length w : {128, 256, 512, 1024, 2048}) {
      const Instance inst = gen::random_uniform(200, w, w / 2, 32, rng);
      Stopwatch watch;
      const approx::Approx54Result r = approx::solve54(inst);
      const double ms = watch.millis();
      if (r.peak == 0) return 1;
      table.begin_row()
          .cell(w)
          .cell(std::size_t{200})
          .cell(ms, 1)
          .cell(1000.0 * ms / static_cast<double>(w), 1);
    }
    std::cout << "\nscaling in W (n fixed) — the pseudo-polynomial axis:\n";
    table.print(std::cout);
  }
  std::cout << "\n";
  if (!n_scaling_probe(smoke) || !staircase_probe(smoke)) return 1;
  std::cout << "\npaper: polynomial in n and W (pseudo-polynomial); measured: "
               "sub-linear in W at fixed n, super-linear in n (the fitted "
               "slopes above; each placement scans O(runs) = O(n)).\n";
  return 0;
}
