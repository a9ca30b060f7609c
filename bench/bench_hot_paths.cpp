// Hot-path kernel trajectory (experiment E15): times the run-length
// Profile's range reductions, range updates and placement searches and the
// knapsack-pricing DP on pinned-seed inputs, and emits one JSON row per
// (kernel, W) with an iteration-independent checksum of the kernel outputs.
//
// The checksum is a pure function of the pinned inputs, so it is identical
// across machines, build types and repeat counts — any cross-PR behaviour
// change shows up as a checksum mismatch, which this binary turns into a
// non-zero exit:
//
//   bench_hot_paths [--smoke] [--out FILE] [--check BENCH_PR6.json]
//
//   --smoke   one timing repeat (CI-friendly); checksums are unaffected
//   --out     also write the rows to FILE (stdout always gets them)
//   --check   compare checksums per kernel/w against a checked-in
//             trajectory; timing ratios are compared too, but only warn on
//             stderr (machines are noisy).  A checksum difference, a
//             baseline that compares nothing, a baseline key with no row in
//             this run and two baseline rows for one key that disagree all
//             fail hard.
//
// The checked-in trajectory lives at BENCH_PR6.json (see DESIGN.md
// "Hot-path layout"); ctest runs the check against it.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "approx/pricing.hpp"
#include "bench_common.hpp"
#include "core/profile.hpp"

namespace dsp::bench {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

struct Row {
  std::string kernel;
  Length w = 0;
  std::size_t n = 0;       ///< operations per repeat (queries, cells, ...)
  double nanos_per_op = 0.0;
  std::uint64_t checksum = 0;
};

/// Pinned-seed load profile: deterministic, spiky enough that searches do
/// real work (plateaus, one global max, varied run lengths).
std::vector<Height> make_load(Length w, std::uint64_t seed) {
  std::vector<Height> load(static_cast<std::size_t>(w));
  Rng rng(seed);
  Height level = 100;
  for (std::size_t x = 0; x < load.size();) {
    const auto run = static_cast<std::size_t>(rng.uniform(1, 12));
    level = std::max<Height>(0, level + rng.uniform(-40, 40));
    for (std::size_t k = 0; k < run && x < load.size(); ++k, ++x) {
      load[x] = level;
    }
  }
  return load;
}

/// A profile holding exactly `load`.
Profile profile_of(const std::vector<Height>& load) {
  Profile profile(static_cast<Length>(load.size()));
  for (std::size_t x = 0; x < load.size(); ++x) {
    profile.add(static_cast<Length>(x), 1, load[x]);
  }
  return profile;
}

/// One timed kernel: `op(checksum_accumulator)` runs the workload once and
/// folds its outputs into the checksum.  The checksum is taken from the
/// first repeat only (repeats are identical), so it never depends on the
/// repeat count.
template <typename Op>
Row time_kernel(const std::string& kernel, Length w, std::size_t ops,
                int repeats, Op&& op) {
  Row row;
  row.kernel = kernel;
  row.w = w;
  row.n = ops;
  std::uint64_t checksum = 0;
  Stopwatch timer;
  for (int r = 0; r < repeats; ++r) {
    std::uint64_t fold = 0;
    op(fold);
    if (r == 0) checksum = fold;
  }
  row.nanos_per_op =
      timer.seconds() * 1e9 / (static_cast<double>(repeats) *
                               static_cast<double>(ops == 0 ? 1 : ops));
  row.checksum = checksum;
  return row;
}

/// The whole suite, one row per (kernel, W).
std::vector<Row> run_suite(bool smoke) {
  std::vector<Row> rows;
  const int repeats = smoke ? 1 : 21;
  const std::vector<Length> widths = {1024, 8192, 65536};

  for (const Length w : widths) {
    const std::vector<Height> load =
        make_load(w, 0xD5Aull + static_cast<std::uint64_t>(w));
    const Profile profile = profile_of(load);
    const auto n = load.size();

    // The first three kernel keys are historical: they timed the dense
    // per-column profile and its sliding-window maxima, which are gone.
    // The same outputs now come from the run-length Profile, so every
    // recorded checksum still holds.

    // Range reductions: the max (clamped at 0) and the min over a range,
    // walked run by run with next_change.
    rows.push_back(time_kernel("occupancy_reduce", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      for (std::size_t q = 0; q < 64; ++q) {
        const auto off = static_cast<Length>((q * 37) % (n / 2));
        const auto end = static_cast<Length>(n) - off;
        Height max = 0;
        Height min = std::numeric_limits<Height>::max();
        for (Length x = off; x < end; x = profile.next_change(x)) {
          const Height load = profile.load_at(x);
          max = std::max(max, load);
          min = std::min(min, load);
        }
        fold = mix(fold, static_cast<std::uint64_t>(max));
        fold = mix(fold, static_cast<std::uint64_t>(min));
      }
    }));

    // Mutating scans: add() and raise_to() over the whole strip.
    rows.push_back(time_kernel("occupancy_raise", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      Profile raised = profile;
      for (std::size_t q = 0; q < 32; ++q) {
        raised.add(0, w, static_cast<Height>(q % 5) - 2);
        raised.raise_to(0, w, static_cast<Height>(60 + q));
      }
      for (Length x = 0; x < w; x += 97) {
        fold = mix(fold, static_cast<std::uint64_t>(raised.load_at(x)));
      }
      fold = mix(fold, static_cast<std::uint64_t>(raised.peak()));
    }));

    // The lowest window max and the leftmost start under three budgets
    // (W - width + 1 when none fits).
    rows.push_back(time_kernel("window_maxima_first_fit", w, 16, repeats,
                               [&](std::uint64_t& fold) {
      for (const Length quarter : {w / 64, w / 16, w / 4}) {
        const Length width = std::max<Length>(1, quarter);
        fold = mix(fold, static_cast<std::uint64_t>(
                             profile.min_peak_position(width).window_max));
        for (const Height budget : {90, 110, 130}) {
          const std::optional<Length> fit = profile.first_fit(width, 0, budget);
          fold = mix(fold, static_cast<std::uint64_t>(
                               fit.value_or(w - width + 1)));
        }
      }
    }));

    // Placement searches on a profile built item by item.
    rows.push_back(time_kernel("sparse_profile_search", w, 64, repeats,
                               [&](std::uint64_t& fold) {
      Profile placed(w);
      for (std::size_t q = 0; q < 64; ++q) {
        const auto at = static_cast<Length>((q * 131) % (w / 2));
        placed.add(at, w / 8, static_cast<Height>(1 + q % 7));
        const auto fit =
            placed.first_fit(w / 16, 5, 200 + static_cast<Height>(q));
        fold = mix(fold, fit ? static_cast<std::uint64_t>(*fit) + 1 : 0);
        const BestPosition best = placed.min_peak_position(w / 16);
        fold = mix(fold, static_cast<std::uint64_t>(best.start));
        fold = mix(fold, static_cast<std::uint64_t>(best.window_max));
      }
    }));
  }

  // Knapsack-pricing DP: contiguous SoA inner loops, capacity-heavy.
  {
    const std::vector<Height> heights = {97, 89, 71, 53, 31, 17, 7, 3};
    std::vector<double> values;
    Rng rng(0xC0FFEE);
    for (std::size_t i = 0; i < heights.size(); ++i) {
      values.push_back(static_cast<double>(rng.uniform(1, 999)) / 10.0);
    }
    rows.push_back(time_kernel("pricing_dp", 0, 32, smoke ? 1 : 21,
                               [&](std::uint64_t& fold) {
      for (std::size_t q = 0; q < 32; ++q) {
        const auto capacity = static_cast<Height>(500 + 250 * q);
        const approx::PricedConfig priced =
            approx::price_knapsack(heights, values, capacity);
        for (const int c : priced.config) {
          fold = mix(fold, static_cast<std::uint64_t>(c));
        }
        fold = mix(fold, static_cast<std::uint64_t>(priced.value * 1000.0));
      }
    }));
  }
  return rows;
}

std::string row_json(const Row& row) {
  std::ostringstream oss;
  machine_fields(JsonRow()
                     .field("bench", "hot_paths")
                     .field("kernel", row.kernel)
                     .field("w", static_cast<std::int64_t>(row.w))
                     .field("n", row.n)
                     .field("nanos_per_op", row.nanos_per_op)
                     .field("checksum", row.checksum))
      .print(oss);
  return oss.str();
}

/// Minimal field scraper for our own single-line rows (no JSON dependency;
/// the format is fully under this repo's control).
std::string scrape(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  auto begin = at + needle.size();
  auto end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

struct Baseline {
  std::uint64_t checksum = 0;
  double nanos_per_op = 0.0;
};

/// Compares this run's checksums (hard) and timing ratios (warn-only)
/// against a checked-in trajectory file, keyed by kernel/w.  Returns the
/// number of failures: checksum mismatches, baseline keys with no row in
/// this run, baseline rows for one key that disagree, and a baseline that
/// compares no row at all.  Rows the baseline does not know yet pass.
int check_against(const std::string& path, const std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_hot_paths: cannot open " << path << "\n";
    return 1;
  }
  int failures = 0;
  std::map<std::string, Baseline> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kernel\"") == std::string::npos) continue;
    const std::string key = scrape(line, "kernel") + "/w" + scrape(line, "w");
    const Baseline baseline{std::stoull(scrape(line, "checksum")),
                            std::stod(scrape(line, "nanos_per_op"))};
    const auto [it, inserted] = expected.emplace(key, baseline);
    if (!inserted && it->second.checksum != baseline.checksum) {
      std::cerr << "bench_hot_paths: baseline rows for " << key
                << " disagree: " << it->second.checksum << " vs "
                << baseline.checksum << "\n";
      ++failures;
    }
  }
  int compared = 0;
  int mismatches = 0;
  for (const Row& row : rows) {
    const std::string key = row.kernel + "/w" + std::to_string(row.w);
    const auto it = expected.find(key);
    if (it == expected.end()) continue;
    ++compared;
    if (it->second.checksum != row.checksum) {
      std::cerr << "bench_hot_paths: CHECKSUM MISMATCH " << key << ": expected "
                << it->second.checksum << ", got " << row.checksum << "\n";
      ++mismatches;
    }
    // Timing drift: warn when this run is notably slower than the recorded
    // trajectory.  Machines differ, so this never fails the run.
    if (it->second.nanos_per_op > 0 &&
        row.nanos_per_op > 3.0 * it->second.nanos_per_op) {
      std::cerr << "bench_hot_paths: warning: " << key << " at "
                << row.nanos_per_op << " ns/op vs recorded "
                << it->second.nanos_per_op << " (3x regression threshold)\n";
    }
    expected.erase(it);
  }
  for (const auto& [key, baseline] : expected) {
    std::cerr << "bench_hot_paths: baseline row " << key
              << " has no row in this run\n";
    ++failures;
  }
  if (compared == 0) {
    std::cerr << "bench_hot_paths: " << path << " compares no row\n";
    ++failures;
  }
  std::cerr << "bench_hot_paths: checked " << compared << " rows against "
            << path << ", " << mismatches << " mismatches\n";
  return failures + mismatches;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: bench_hot_paths [--smoke] [--out FILE] "
                   "[--check FILE]\n";
      return 2;
    }
  }

  const std::vector<Row> rows = run_suite(smoke);
  std::ostringstream body;
  for (const Row& row : rows) body << row_json(row);
  std::cout << body.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << body.str();
  }

  const int failures = check_path.empty() ? 0 : check_against(check_path, rows);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) { return dsp::bench::main_impl(argc, argv); }
