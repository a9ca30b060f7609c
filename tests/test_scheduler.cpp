// The runtime that remains once nothing fans out (DESIGN.md, "The
// parallel runtime"): the hardware-width fallback behind the daemon's
// default admission capacity, determinism of skewed batches served by
// concurrent callers, and the zero scheduler-counter shim.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/portfolio.hpp"
#include "gen/families.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "util/prng.hpp"

#include "concurrent_serve.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// The hardware width (hardware_concurrency() == 0 and 1-core hosts).
// ---------------------------------------------------------------------------

TEST(ResolveWorkerCount, UnknownHardwareFallsBackToTwo) {
  // hardware_concurrency() == 0 means "unknown", not "none".  Two
  // admission slots keep the daemon genuinely concurrent instead of
  // silently serializing.
  EXPECT_EQ(runtime::hardware_threads(0), runtime::kUnknownHardwareThreads);
  EXPECT_EQ(runtime::kUnknownHardwareThreads, 2u);
}

TEST(ResolveWorkerCount, OneCoreContainerGetsOneWorker) {
  EXPECT_EQ(runtime::hardware_threads(1), 1u);
  EXPECT_EQ(runtime::hardware_threads(8), 8u);
}

TEST(ResolveWorkerCount, HardwareThreadsIsNeverZero) {
  EXPECT_GE(runtime::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism under skew: one 10-100x heavier instance amid cheap ones,
// bit-identical for any number of concurrent callers.
// ---------------------------------------------------------------------------

std::vector<Instance> skewed_batch(std::uint64_t seed, std::size_t heavy_n,
                                   std::size_t light_n, std::size_t count) {
  std::vector<Instance> batch;
  Rng rng(seed);
  // The heavy instance leads: the caller that serves it falls behind
  // while the others serve the light tail.
  batch.push_back(gen::random_uniform(heavy_n, 120, 60, 24, rng));
  for (std::size_t b = 1; b < count; ++b) {
    Rng shard = rng.spawn(b);
    batch.push_back(gen::random_uniform(light_n, 120, 60, 24, shard));
  }
  return batch;
}

TEST(SchedulerDeterminism, SkewedBatchesBitIdenticalAcrossSchedules) {
  for (const std::uint64_t seed : {11u, 12u}) {
    // heavy_n/light_n = 40: well inside the 10-100x cost band.
    const std::vector<Instance> batch = skewed_batch(seed, 160, 4, 10);
    // Reference: each request served alone on the calling thread.
    service::CachingSolver sequential_solver;
    std::vector<service::SolveResponse> reference;
    for (const Instance& instance : batch) {
      reference.push_back(sequential_solver.solve(instance));
    }
    for (const std::size_t callers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      service::CachingSolver solver;
      EXPECT_EQ(testing_serve::serve_concurrently(solver, batch, callers),
                reference)
          << "seed " << seed << " callers " << callers;
    }
  }
}

/// The checksum mix, folded over the peak and every start of each answer
/// in request order.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t fold_answer(std::uint64_t checksum, Height peak,
                          const Packing& packing) {
  checksum = mix(checksum, static_cast<std::uint64_t>(peak));
  for (const Length start : packing.start) {
    checksum = mix(checksum, static_cast<std::uint64_t>(start));
  }
  return checksum;
}

TEST(SchedulerDeterminism, SolveSkewChecksumIsPinned) {
  // A skewed batch: one n=192 instance amid 63 n=48 ones, each light
  // instance drawn from its own spawned stream.  Two pins: the portfolio
  // witness over the raw instances, and the served answers (solve54 over
  // each canonical form, mapped back), both computed in request order.
  constexpr std::uint64_t kWitnessPin = 15969027589129456493ull;
  constexpr std::uint64_t kServedPin = 674198318919656810ull;
  Rng rng(20240613 + 9);
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(192, 120, 60, 24, rng));
  for (std::size_t b = 1; b < 64; ++b) {
    Rng shard = rng.spawn(b);
    batch.push_back(gen::random_uniform(48, 120, 60, 24, shard));
  }
  std::uint64_t portfolio = 0;
  for (const Instance& instance : batch) {
    const Packing packing = algo::best_of_portfolio(instance);
    portfolio =
        fold_answer(portfolio, peak_height(instance, packing), packing);
  }
  EXPECT_EQ(portfolio, kWitnessPin);
  service::CachingSolver solver;
  std::uint64_t served = 0;
  for (const Instance& instance : batch) {
    const service::SolveResponse response = solver.solve(instance);
    served = fold_answer(served, response.peak, response.packing);
  }
  EXPECT_EQ(served, kServedPin);
}

// ---------------------------------------------------------------------------
// The scheduler-counter shim the end-to-end benchmark reads.
// ---------------------------------------------------------------------------

TEST(ServingScheduler, CachingSolverExposesCounters) {
  // The solver's registry source exports the cache counters and no
  // scheduler sample; the shim's totals stay 0 across requests served
  // by concurrent callers.
  service::CachingSolver solver(service::ServeParams{},
                                service::CacheOptions{1 << 20});
  const std::vector<Instance> batch = skewed_batch(915, 8, 16, 6);
  (void)testing_serve::serve_concurrently(solver, batch, 2);
  const runtime::SchedulerCounters totals = runtime::scheduler_totals();
  EXPECT_EQ(totals.executed, 0u);
  EXPECT_EQ(totals.steals, 0u);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.sample_value("cache.misses"), batch.size());
  for (const obs::Sample& sample : snap.samples) {
    EXPECT_EQ(sample.name.find("scheduler"), std::string::npos)
        << sample.name;
  }
}

}  // namespace
}  // namespace dsp
