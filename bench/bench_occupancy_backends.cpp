// Occupancy-backend micro-benchmark: the dense StripOccupancy sweeps vs. the
// sparse run-length profile behind the ProfileBackend interface, across
// strip widths.  The placement-heavy baselines (greedy smoothing, the
// Ranjan-style first-fit search and the bottom-left skyline) run the same
// item set on both backends; the dense passes are Θ(W) per placement while
// the run-length profile is O(runs) = O(n) whatever W is, so the crossover
// appears once the strip outgrows the item count — the sparse/wide regime
// that resolve_backend(kAuto) routes to the run-length profile.
//
// Exits 1 if the two backends return different packings.  Emits the human
// table plus one JSON row per measurement (bench_common.hpp JsonRow format)
// for downstream scraping.

#include <iostream>

#include "algo/baselines.hpp"
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

/// n narrow items on a strip of width W: the item widths stay bounded while
/// W grows, so wide strips are sparsely covered.
Instance sparse_instance(std::size_t n, Length strip_width, Rng& rng) {
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(Item{rng.uniform(1, 24), rng.uniform(1, 20)});
  }
  return Instance(strip_width, std::move(items));
}

}  // namespace

int main() {
  std::cout << "occupancy backends: dense O(W) sweeps vs sparse O(runs) "
               "run-length profile\n\n";
  const std::vector<Workload> workloads = {
      {"greedy-h", run_greedy},
      {"first-fit", run_first_fit},
      {"bottom-left", algo::bottom_left_dsp},
  };
  const std::size_t n = 96;
  Table table({"algorithm", "W", "dense ms", "sparse ms", "speedup", "auto"});
  for (const Workload& workload : workloads) {
    for (const Length w : {128, 512, 2048, 8192, 32768, 131072}) {
      Rng rng(static_cast<std::uint64_t>(w) * 31 + 7);
      const Instance inst = sparse_instance(n, w, rng);

      Stopwatch watch;
      const Packing dense = workload.run(inst, ProfileBackendKind::kDense);
      const double dense_ms = watch.millis();
      watch.reset();
      const Packing sparse = workload.run(inst, ProfileBackendKind::kSparse);
      const double sparse_ms = watch.millis();
      if (dense != sparse) {
        std::cout << "BACKEND MISMATCH: " << workload.name << " on W=" << w
                  << "\n";
        return 1;
      }
      const auto resolved = resolve_backend(ProfileBackendKind::kAuto, w, n);

      table.begin_row()
          .cell(workload.name)
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
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nsparse costs O(runs) per placement and O(n) memory, dense "
               "O(W); resolve_backend(kAuto) picks sparse iff W > 16 n.\n";
  return 0;
}
