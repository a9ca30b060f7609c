#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "algo/portfolio.hpp"
#include "core/packing.hpp"
#include "gen/families.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests.
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitAndWait) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  int sum = 0;
  for (auto& future : futures) sum += future.get();
  int expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  runtime::ThreadPool pool(2);
  auto ok = pool.submit([]() { return 7; });
  auto boom = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(boom.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto after = pool.submit([]() { return 11; });
  EXPECT_EQ(after.get(), 11);
}

TEST(ThreadPool, ZeroTasksDestructsCleanly) {
  runtime::ThreadPool pool(3);
  // No submissions: the destructor must not hang on idle workers.
}

TEST(ThreadPool, SingleThreadRunsEverything) {
  runtime::ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter]() { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultSizeIsHardware) {
  runtime::ThreadPool pool;
  EXPECT_EQ(pool.size(), runtime::ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PendingTasksStillCompleteAtDestruction) {
  std::atomic<int> done{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      auto future = pool.submit([&done]() { ++done; });
      (void)future;  // futures dropped: destructor must still drain the queue
    }
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ParallelMap, PreservesInputOrderAndRethrows) {
  runtime::ThreadPool pool(4);
  const std::vector<int> items = {5, 3, 8, 1, 9};
  const auto doubled = runtime::parallel_map(
      pool, items, [](const int& x, std::size_t) { return 2 * x; });
  EXPECT_EQ(doubled, (std::vector<int>{10, 6, 16, 2, 18}));
  EXPECT_THROW(
      (void)runtime::parallel_map(pool, items,
                                  [](const int& x, std::size_t) -> int {
                                    if (x == 8) throw std::logic_error("8");
                                    return x;
                                  }),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// Determinism: parallel results are bit-identical to sequential ones for all
// thread counts and both profile backends.
// ---------------------------------------------------------------------------

std::vector<Instance> determinism_instances() {
  std::vector<Instance> instances;
  Rng rng(424242);
  instances.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  instances.push_back(gen::tall_items(30, 48, 20, rng));
  instances.push_back(gen::wide_items(24, 48, 8, rng));
  instances.push_back(gen::correlated(32, 64, 32, 12, rng));
  instances.push_back(gen::perfect_packing(25, 40, 20, rng));
  // A wide, lightly covered strip so kAuto resolves to the sparse backend.
  instances.push_back(gen::random_uniform(24, 4096, 6, 10, rng));
  return instances;
}

class RuntimeDeterminism
    : public ::testing::TestWithParam<std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(RuntimeDeterminism, ParallelPortfolioMatchesSequential) {
  const auto& [threads, backend] = GetParam();
  for (const Instance& instance : determinism_instances()) {
    std::string seq_winner;
    const Packing sequential =
        algo::best_of_portfolio(instance, &seq_winner, backend);
    std::string par_winner;
    runtime::ParallelOptions options;
    options.threads = threads;
    options.backend = backend;
    std::atomic<Height> live_peak{runtime::kPeakUnknown};
    options.live_peak = &live_peak;
    const Packing parallel =
        runtime::parallel_best_of_portfolio(instance, &par_winner, options);
    EXPECT_EQ(parallel, sequential) << instance.summary();
    EXPECT_EQ(par_winner, seq_winner) << instance.summary();
    // The atomic early-report ends at exactly the winning peak.
    EXPECT_EQ(live_peak.load(), peak_height(instance, sequential));
  }
}

TEST_P(RuntimeDeterminism, SolveManyMatchesSequentialLoop) {
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  std::vector<runtime::BatchResult> sequential;
  for (const Instance& instance : batch) {
    runtime::BatchResult result;
    result.packing = algo::best_of_portfolio(instance, &result.winner, backend);
    result.peak = peak_height(instance, result.packing);
    sequential.push_back(std::move(result));
  }
  runtime::ParallelOptions options;
  options.threads = threads;
  options.backend = backend;
  EXPECT_EQ(runtime::solve_many(batch, options), sequential);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, RuntimeDeterminism,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

TEST(SolveMany, EmptyBatchAndSharedPool) {
  EXPECT_TRUE(runtime::solve_many({}).empty());
  runtime::ThreadPool pool(2);
  Rng rng(7);
  const std::vector<Instance> batch = {gen::random_uniform(10, 20, 10, 5, rng)};
  const auto via_shared = runtime::solve_many(pool, batch);
  ASSERT_EQ(via_shared.size(), 1u);
  EXPECT_EQ(via_shared[0].packing, algo::best_of_portfolio(batch[0]));
}

// ---------------------------------------------------------------------------
// Per-task seeding.
// ---------------------------------------------------------------------------

TEST(RngSpawn, StreamsAreIndependentOfDrawPosition) {
  Rng a(555);
  Rng b(555);
  (void)b.uniform(0, 1000);  // advance b only
  // spawn depends on (seed, stream), not on how much was drawn.
  Rng child_a = a.spawn(3);
  Rng child_b = b.spawn(3);
  EXPECT_EQ(child_a.uniform(0, 1 << 30), child_b.uniform(0, 1 << 30));
  // Distinct streams diverge (overwhelmingly likely under SplitMix64).
  Rng other = a.spawn(4);
  bool differs = false;
  Rng again = a.spawn(3);
  for (int i = 0; i < 8; ++i) {
    if (other.uniform(0, 1 << 30) != again.uniform(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace dsp
