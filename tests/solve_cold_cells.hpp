#pragma once

// The solve-cold cells: 6 families x n {100, 400} x W {256, 1024, 2048},
// the grid of e2ebench's solve-cold workload, one seed per cell; and the
// five shapes of its solve-wide workload.

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "util/prng.hpp"

namespace dsp::testing_cells {

struct SolveColdCell {
  const char* family;
  std::size_t n;
  Length w;
};

inline void PrintTo(const SolveColdCell& cell, std::ostream* os) {
  *os << cell.family << "_n" << cell.n << "_W" << cell.w;
}

[[nodiscard]] inline std::vector<SolveColdCell> solve_cold_cells() {
  std::vector<SolveColdCell> cells;
  for (const char* family :
       {"uniform", "tall", "wide", "perfect", "correlated", "smart_grid"}) {
    for (const std::size_t n : {100, 400}) {
      for (const Length w : {256, 1024, 2048}) cells.push_back({family, n, w});
    }
  }
  return cells;
}

[[nodiscard]] inline Instance solve_cold_instance(const SolveColdCell& cell) {
  Rng rng(static_cast<std::uint64_t>(cell.w) * 1009 + cell.n);
  const std::string family = cell.family;
  const Length w = cell.w;
  if (family == "uniform") {
    return gen::random_uniform(cell.n, w, w / 4, 100, rng);
  }
  if (family == "tall") return gen::tall_items(cell.n, w, 100, rng);
  if (family == "wide") return gen::wide_items(cell.n, w, 20, rng);
  if (family == "perfect") return gen::perfect_packing(cell.n, w, 200, rng);
  if (family == "correlated") {
    return gen::correlated(cell.n, w, w / 4, 100, rng);
  }
  return gen::smart_grid(cell.n, w, rng);
}

/// The minute-resolution appliance catalog of the solve-wide week cells:
/// every duration of the default catalog x15.
[[nodiscard]] inline std::vector<gen::Appliance> minute_catalog() {
  std::vector<gen::Appliance> minutes = gen::default_catalog();
  for (gen::Appliance& appliance : minutes) {
    appliance.min_slots *= 15;
    appliance.max_slots *= 15;
  }
  return minutes;
}

/// One draw of each solve-wide shape, seeded by n: a week at minute
/// resolution (W = 10080, n in {50, 100, 150}) and a 2^16-column uniform
/// strip (n in {30, 60}).
[[nodiscard]] inline std::vector<Instance> solve_wide_instances() {
  std::vector<Instance> instances;
  const std::vector<gen::Appliance> minutes = minute_catalog();
  for (const std::size_t n : {50, 100, 150}) {
    Rng rng(n);
    instances.push_back(gen::smart_grid(n, 10080, rng, minutes));
  }
  for (const std::size_t n : {30, 60}) {
    Rng rng(n);
    instances.push_back(gen::random_uniform(n, 65536, 65536 / 4, 100, rng));
  }
  return instances;
}

}  // namespace dsp::testing_cells
