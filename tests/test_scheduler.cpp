// The work-stealing scheduler (DESIGN.md, "The parallel runtime"): deque
// protocol order, forced steals, pool-sizing fallbacks, determinism of
// skewed batches across thread counts x backends, the process-wide counter
// plumbing the serving layer reports, and solve54 staying off every pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
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
// Pool sizing (satellite: hardware_concurrency() == 0 and 1-core hosts).
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
  EXPECT_GE(runtime::ThreadPool::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Deque protocol: externals drain FIFO, own spawns drain LIFO.
// ---------------------------------------------------------------------------

TEST(SchedulerProtocol, ExternalTasksDrainInSubmissionOrder) {
  // One worker, gated so all three tasks are queued before any runs.
  runtime::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::string> order;  // single worker: appends are serial
  auto blocker = pool.submit([open]() { open.wait(); });
  auto a = pool.submit([&order]() { order.push_back("a"); });
  auto b = pool.submit([&order]() { order.push_back("b"); });
  auto c = pool.submit([&order]() { order.push_back("c"); });
  gate.set_value();
  blocker.get();
  a.get();
  b.get();
  c.get();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SchedulerProtocol, OwnerSpawnsDrainNewestFirst) {
  // A task spawned by a pool worker goes to the owner (LIFO, cache-warm)
  // end of its own deque: the spawner's most recent child runs first.
  runtime::ThreadPool pool(1);
  std::vector<std::string> order;
  std::future<void> s1, s2;
  pool.submit([&]() {
        s1 = pool.submit([&order]() { order.push_back("s1"); });
        s2 = pool.submit([&order]() { order.push_back("s2"); });
        order.push_back("parent");
      })
      .get();
  s1.get();
  s2.get();
  EXPECT_EQ(order, (std::vector<std::string>{"parent", "s2", "s1"}));
}

// ---------------------------------------------------------------------------
// Stealing and the scheduler counters.
// ---------------------------------------------------------------------------

TEST(SchedulerStealing, IdleWorkerStealsFromBlockedVictim) {
  // Worker 0 is parked on a gate; its queued tasks must migrate to worker
  // 1, so they complete while the victim is still blocked.
  runtime::ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  // Round-robin placement: first external lands on worker 0.
  auto blocker = pool.submit([open]() { open.wait(); });
  std::vector<std::future<int>> work;
  for (int i = 0; i < 8; ++i) {
    work.push_back(pool.submit([i]() { return i; }));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(work[static_cast<std::size_t>(i)].get(), i);
  }
  // Half the tasks were placed on the blocked worker 0: finishing them all
  // before the gate opens is only possible by stealing.
  EXPECT_GE(pool.counters().steals, 1u);
  gate.set_value();
  blocker.get();
}

TEST(SchedulerStealing, CountersAccumulateIntoProcessTotals) {
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  {
    runtime::ThreadPool pool(2);
    std::vector<std::future<int>> work;
    for (int i = 0; i < 16; ++i) {
      work.push_back(pool.submit([i]() { return i * i; }));
    }
    for (auto& future : work) (void)future.get();
  }  // destruction folds this pool's counters into the totals
  // A task's future is ready before its worker counts it executed, so the
  // counts are exact only once the pool is destroyed.
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  EXPECT_EQ(after.submitted - before.submitted, 16u);
  EXPECT_EQ(after.executed - before.executed, 16u);
}

TEST(SchedulerStealing, OccupancyGaugeTracksRunningTasks) {
  runtime::ThreadPool pool(2);
  EXPECT_EQ(pool.occupancy(), 0u);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto a = pool.submit([open]() { open.wait(); });
  auto b = pool.submit([open]() { open.wait(); });
  // Both workers should pick up a gated task; poll briefly (the gauge is
  // monotone here until the gate opens).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.occupancy() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.occupancy(), 2u);
  EXPECT_GE(runtime::process_active_workers(), 2u);
  gate.set_value();
  a.get();
  b.get();
}

// ---------------------------------------------------------------------------
// Determinism under skew: one 10-100x heavier instance amid cheap ones,
// bit-identical across thread counts x backends.
// ---------------------------------------------------------------------------

std::vector<Instance> skewed_batch(std::uint64_t seed, std::size_t heavy_n,
                                   std::size_t light_n, std::size_t count) {
  std::vector<Instance> batch;
  Rng rng(seed);
  // The heavy instance leads, so round-robin placement puts it plus a
  // light tail on worker 0 — the skew stealing exists to absorb.
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
    for (const ProfileBackendKind backend :
         {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
      service::ServeParams params;
      params.backend = backend;
      params.bypass_cache = true;
      // Reference: each request served alone on the calling thread.
      service::CachingSolver sequential_solver(params);
      std::vector<service::SolveResponse> reference;
      for (const Instance& instance : batch) {
        reference.push_back(sequential_solver.solve(instance));
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{8}}) {
        params.threads = threads;
        service::CachingSolver solver(params);
        EXPECT_EQ(solver.solve_many(batch), reference)
            << "seed " << seed << " threads " << threads << " backend "
            << static_cast<int>(backend);
      }
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
    params.bypass_cache = true;
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
  std::vector<std::uint64_t> reference;
  {
    runtime::ThreadPool pool(1);
    reference = runtime::parallel_map(pool, items, heavy_square);
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    runtime::ThreadPool pool(threads);
    EXPECT_EQ(runtime::parallel_map(pool, items, heavy_square), reference)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// solve54 runs on its caller's thread.
// ---------------------------------------------------------------------------

TEST(Solve54Sequential, SubmitsNoPoolTasksOnGoldenFamilies) {
  // Pools fold their counters into the process totals when destroyed, so
  // any pool a solve54 call spawned (and joined) would show up here.
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    (void)approx::solve54(golden.instance);
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.submitted, before.submitted) << golden.name;
    EXPECT_EQ(after.executed, before.executed) << golden.name;
  }
}

TEST(Solve54Sequential, LpEnginesAndBackendsSubmitNoPoolTasks) {
  // Narrow items on a wide strip populate the Lemma-10 LP (column
  // generation), the stage that used to fan its pricing out to a pool.
  Rng rng(909);
  const Instance inst = gen::random_uniform(48, 240, 4, 24, rng);
  for (const ProfileBackendKind backend :
       {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
    approx::Approx54Params params;
    params.backend = backend;
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    (void)approx::solve54(inst, params);
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.submitted, before.submitted)
        << "backend " << static_cast<int>(backend);
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
  EXPECT_EQ(after.submitted, before.submitted);
  // A batch fans out over a pool whose counters fold into the totals.
  (void)solver.solve_many(skewed_batch(915, 8, 16, 6));
  const runtime::SchedulerCounters batched = runtime::scheduler_totals();
  EXPECT_GT(batched.submitted, after.submitted);
  EXPECT_EQ(batched.executed - after.executed,
            batched.submitted - after.submitted);
  // The solver's registry source exports those same process totals.
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.sample_value("scheduler.submitted"), batched.submitted);
}

TEST(ServingScheduler, SolveManySubmitsOneTaskPerRequest) {
  // The batch pool is joined before solve_many returns: every request was
  // one task, all of them ran, and no worker is left running.  More
  // threads than requests changes nothing in the counts.
  Rng rng(917);
  std::vector<Instance> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(gen::random_uniform(12, 48, 16, 8, rng));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    service::ServeParams params;
    params.threads = threads;
    params.bypass_cache = true;
    service::CachingSolver solver(params);
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    EXPECT_EQ(solver.solve_many(batch).size(), batch.size());
    const runtime::SchedulerCounters after = runtime::scheduler_totals();
    EXPECT_EQ(after.submitted - before.submitted, batch.size())
        << "threads " << threads;
    EXPECT_EQ(after.executed - before.executed, batch.size())
        << "threads " << threads;
    EXPECT_EQ(runtime::process_active_workers(), 0u) << "threads " << threads;
  }
}

}  // namespace
}  // namespace dsp
