// Occupancy-backend micro-benchmark: the dense StripOccupancy sweeps vs. the
// sparse run-length profile behind the ProfileBackend interface, across
// strip widths and item counts.  The placement-heavy baselines (greedy
// smoothing, the Ranjan-style first-fit search and the bottom-left skyline)
// and the whole witness portfolio (best_of_portfolio) run the same item set
// on both backends.  The dense passes are Θ(W) per placement while the
// run-length profile is O(runs) = O(n) whatever W is.  resolve_backend(kAuto)
// picks the run-length profile on every strip; the narrow rows (W = 8, 16)
// show the constant factor that costs where W is below ~16 columns.
//
// Exits 1 if the two backends return different packings.  Emits the human
// table plus one JSON row per measurement (bench_common.hpp JsonRow format)
// for downstream scraping.

#include <algorithm>
#include <iostream>

#include "algo/baselines.hpp"
#include "algo/portfolio.hpp"
#include "bench_common.hpp"
#include "core/profile.hpp"

namespace {

using namespace dsp;

struct Workload {
  std::string name;
  Packing (*run)(const Instance&, ProfileBackendKind);
};

Packing run_greedy(const Instance& inst, ProfileBackendKind backend) {
  return algo::greedy_lowest_peak(inst, algo::ItemOrder::kDecreasingHeight,
                                  backend);
}

Packing run_first_fit(const Instance& inst, ProfileBackendKind backend) {
  return algo::first_fit_search(inst, backend);
}

Packing run_portfolio(const Instance& inst, ProfileBackendKind backend) {
  return algo::best_of_portfolio(inst, nullptr, backend);
}

/// n narrow items on a strip of width W: the item widths stay bounded while
/// W grows, so wide strips are sparsely covered and narrow ones densely.
Instance sparse_instance(std::size_t n, Length strip_width, Rng& rng) {
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{rng.uniform(1, std::min<Length>(24, strip_width)),
                         rng.uniform(1, 20)});
  }
  return Instance(strip_width, std::move(items));
}

/// Fastest of up to five runs (one once a run takes over 20 ms), so the
/// microsecond-scale narrow rows are not one cold-cache sample.
double best_ms(const Workload& workload, const Instance& inst,
               ProfileBackendKind backend, Packing* packing) {
  double best = 0.0;
  double spent = 0.0;
  for (int rep = 0; rep < 5 && spent < 20.0; ++rep) {
    Stopwatch watch;
    *packing = workload.run(inst, backend);
    const double ms = watch.millis();
    best = rep == 0 ? ms : std::min(best, ms);
    spent += ms;
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "occupancy backends: dense O(W) sweeps vs sparse O(runs) "
               "run-length profile\n\n";
  const std::vector<Workload> workloads = {
      {"greedy-h", run_greedy},
      {"first-fit", run_first_fit},
      {"bottom-left", algo::bottom_left_dsp},
      {"portfolio", run_portfolio},
  };
  Table table(
      {"algorithm", "n", "W", "dense ms", "sparse ms", "speedup", "auto"});
  for (const std::size_t n : {std::size_t{96}, std::size_t{400}}) {
    for (const Workload& workload : workloads) {
      for (const Length w :
           {8, 16, 64, 128, 512, 2048, 8192, 32768, 131072}) {
        Rng rng(static_cast<std::uint64_t>(w) * 31 + n);
        const Instance inst = sparse_instance(n, w, rng);

        Packing dense;
        Packing sparse;
        const double dense_ms =
            best_ms(workload, inst, ProfileBackendKind::kDense, &dense);
        const double sparse_ms =
            best_ms(workload, inst, ProfileBackendKind::kSparse, &sparse);
        if (dense != sparse) {
          std::cout << "BACKEND MISMATCH: " << workload.name << " on n=" << n
                    << " W=" << w << "\n";
          return 1;
        }
        const auto resolved = resolve_backend(ProfileBackendKind::kAuto, w, n);

        table.begin_row()
            .cell(workload.name)
            .cell(n)
            .cell(static_cast<std::int64_t>(w))
            .cell(dense_ms, 3)
            .cell(sparse_ms, 3)
            .cell(sparse_ms > 0 ? dense_ms / sparse_ms : 0.0, 2)
            .cell(std::string(to_string(resolved)));
        dsp::machine_fields(bench::JsonRow())
            .field("bench", "occupancy_backends")
            .field("algorithm", workload.name)
            .field("strip_width", static_cast<std::int64_t>(w))
            .field("items", n)
            .field("dense_ms", dense_ms)
            .field("sparse_ms", sparse_ms)
            .field("auto_backend", std::string(to_string(resolved)))
            .field("peak", peak_height(inst, dense))
            .print(std::cout);
      }
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nsparse costs O(runs) per placement and O(n) memory, dense "
               "O(W); resolve_backend(kAuto) picks sparse on every strip.\n";
  return 0;
}
