// The batch fan-out (DESIGN.md, "The parallel runtime"): worker-count
// fallbacks, determinism of skewed batches across thread counts, the
// process-wide counter plumbing the serving layer reports, and solve54
// staying on its caller's thread.

#include <gtest/gtest.h>

#include <vector>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// Worker counts (hardware_concurrency() == 0 and 1-core hosts).
// ---------------------------------------------------------------------------

TEST(ResolveWorkerCount, ExplicitRequestAlwaysWins) {
  EXPECT_EQ(runtime::resolve_worker_count(4, 0), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(4, 1), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(1, 64), 1u);
}

TEST(ResolveWorkerCount, UnknownHardwareFallsBackToTwo) {
  // hardware_concurrency() == 0 means "unknown", not "none".  Two workers
  // keep batch fan-out genuinely concurrent instead of silently
  // serializing.
  EXPECT_EQ(runtime::resolve_worker_count(0, 0),
            runtime::kUnknownHardwareWorkers);
  EXPECT_EQ(runtime::kUnknownHardwareWorkers, 2u);
}

TEST(ResolveWorkerCount, OneCoreContainerGetsOneWorker) {
  EXPECT_EQ(runtime::resolve_worker_count(0, 1), 1u);
  EXPECT_EQ(runtime::resolve_worker_count(0, 8), 8u);
}

TEST(ResolveWorkerCount, HardwareThreadsIsNeverZero) {
  EXPECT_GE(runtime::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// The scheduler counters.
// ---------------------------------------------------------------------------

TEST(ParallelMap, ExecutedCountsEveryItem) {
  const std::vector<int> items(16, 3);
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  (void)runtime::parallel_map(2, items,
                              [](const int& x, std::size_t) { return x * x; });
  // parallel_map joins its threads before returning, so the total is exact.
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  EXPECT_EQ(after.executed - before.executed, items.size());
  EXPECT_EQ(after.steals, 0u);
}

// ---------------------------------------------------------------------------
// Determinism under skew: one 10-100x heavier instance amid cheap ones,
// bit-identical across thread counts.
// ---------------------------------------------------------------------------

std::vector<Instance> skewed_batch(std::uint64_t seed, std::size_t heavy_n,
                                   std::size_t light_n, std::size_t count) {
  std::vector<Instance> batch;
  Rng rng(seed);
  // The heavy instance leads: whichever worker claims it, the others
  // must pick up the light tail.
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
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      service::ServeParams params;
      params.threads = threads;
      service::CachingSolver solver(params);
      EXPECT_EQ(solver.solve_many(batch), reference)
          << "seed " << seed << " threads " << threads;
    }
  }
}

/// bench_parallel_scaling's hash step, folded over the peak and every
/// start of each answer in request order.
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
  // The solve_skew batch of bench_parallel_scaling: one n=192 instance
  // amid 63 n=48 ones, each light instance drawn from its own spawned
  // stream.  Two pins: the sequential portfolio over the raw instances,
  // and the served answers (the portfolio over each canonical form,
  // mapped back), which the batch path must reproduce at every thread
  // count.
  constexpr std::uint64_t kPortfolioPin = 15969027589129456493ull;
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
  EXPECT_EQ(portfolio, kPortfolioPin);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    service::ServeParams params;
    params.threads = threads;
    service::CachingSolver solver(params);
    std::uint64_t served = 0;
    for (const service::SolveResponse& response : solver.solve_many(batch)) {
      served = fold_answer(served, response.peak, response.packing);
    }
    EXPECT_EQ(served, kServedPin) << "threads " << threads;
  }
}

TEST(SchedulerDeterminism, ParallelMapIdenticalAcrossThreadCounts) {
  std::vector<int> items(64);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const auto heavy_square = [](const int& value, std::size_t) {
    // Skewed: item 0 does ~100x the work of the rest.
    std::uint64_t acc = static_cast<std::uint64_t>(value);
    const int spins = value == 0 ? 100'000 : 1'000;
    for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 13u;
    return acc;
  };
  const std::vector<std::uint64_t> reference =
      runtime::parallel_map(1, items, heavy_square);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(runtime::parallel_map(threads, items, heavy_square), reference)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// solve54 runs on its caller's thread.
// ---------------------------------------------------------------------------

TEST(Solve54Sequential, SubmitsNoPoolTasksOnGoldenFamilies) {
  // Every parallel_map item counts into the process totals, so any fan-out
  // a solve54 call ran would show up here.
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    (void)approx::solve54(golden.instance);
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.executed, before.executed) << golden.name;
  }
}

TEST(Solve54Sequential, LpEnginesAndBackendsSubmitNoPoolTasks) {
  // Narrow items on a wide strip populate the Lemma-10 LP (column
  // generation), the stage that used to fan its pricing out to a pool.
  Rng rng(909);
  const std::vector<Instance> instances = {
      gen::random_uniform(48, 240, 4, 24, rng),
      gen::random_uniform(12, 240, 4, 24, rng),
  };
  for (const Instance& inst : instances) {
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    (void)approx::solve54(inst);
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.executed, before.executed) << inst.summary();
  }
}

// ---------------------------------------------------------------------------
// Serving layer: counters.
// ---------------------------------------------------------------------------

TEST(ServingScheduler, CachingSolverExposesCounters) {
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  params.threads = 2;
  service::CachingSolver solver(params, service::CacheOptions{1 << 20, 1});
  Rng rng(913);
  const Instance inst = gen::random_uniform(24, 120, 40, 16, rng);
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  (void)solver.solve(inst);
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  // A single request is served on the calling thread end to end.
  EXPECT_EQ(after.executed, before.executed);
  // A batch fans out; each of its requests counts as one item run.
  const std::vector<Instance> batch = skewed_batch(915, 8, 16, 6);
  (void)solver.solve_many(batch);
  const runtime::SchedulerCounters batched = runtime::scheduler_totals();
  EXPECT_EQ(batched.executed - after.executed, batch.size());
  // The solver's registry source exports that same process total.
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.sample_value("scheduler.executed"), batched.executed);
}

TEST(ServingScheduler, SolveManySubmitsOneTaskPerRequest) {
  // The batch threads are joined before solve_many returns: every request
  // was one item and all of them ran.  More threads than requests changes
  // nothing in the count.
  Rng rng(917);
  std::vector<Instance> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(gen::random_uniform(12, 48, 16, 8, rng));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    service::ServeParams params;
    params.threads = threads;
    service::CachingSolver solver(params);
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    EXPECT_EQ(solver.solve_many(batch).size(), batch.size());
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.executed - before.executed, batch.size())
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace dsp
