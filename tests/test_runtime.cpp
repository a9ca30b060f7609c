#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "algo/portfolio.hpp"
#include "core/packing.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
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

TEST(ThreadPoolStop, SubmitStillWorksUpToDestruction) {
  // The throw-on-stopping guard must not affect a live pool: heavy
  // submit/drain churn right up to the destructor stays clean.
  for (int round = 0; round < 20; ++round) {
    runtime::ThreadPool pool(2);
    std::vector<std::future<int>> futures;
    futures.reserve(32);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([i]() { return i; }));
    }
    int sum = 0;
    for (auto& future : futures) sum += future.get();
    EXPECT_EQ(sum, 31 * 32 / 2);
  }
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

TEST(ParallelMap, RethrowsFirstErrorInInputOrder) {
  // Every task is awaited, then the first error in *input* order is
  // rethrown — even when a later-input error completes earlier.
  runtime::ThreadPool pool(2);
  const std::vector<int> items = {0, 1, 2, 3};
  try {
    (void)runtime::parallel_map(pool, items, [&](const int& x, std::size_t) {
      if (x == 1) {
        // Give the later-input error every chance to finish first.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::logic_error("input-order-first");
      }
      if (x == 3) throw std::runtime_error("completion-order-first");
      return x;
    });
    FAIL() << "parallel_map must rethrow";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "input-order-first");
  }
}

TEST(ParallelMap, EmptyInputSubmitsNothing) {
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  {
    runtime::ThreadPool pool(2);
    const std::vector<int> none;
    EXPECT_TRUE(runtime::parallel_map(pool, none, [](const int& x,
                                                     std::size_t) {
                  return x;
                }).empty());
  }
  EXPECT_EQ(runtime::scheduler_totals().submitted, before.submitted);
}

TEST(ParallelMap, PassesEachItemItsInputIndex) {
  runtime::ThreadPool pool(4);
  std::vector<int> items(50);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(3 * i + 1);
  }
  const auto pairs = runtime::parallel_map(
      pool, items, [&items](const int& x, std::size_t index) {
        // The index names the item's own slot, not a completion order.
        EXPECT_EQ(&x, &items[index]);
        return std::make_pair(x, index);
      });
  ASSERT_EQ(pairs.size(), items.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].first, items[i]);
    EXPECT_EQ(pairs[i].second, i);
  }
}

TEST(ParallelMap, AwaitsEveryTaskBeforeRethrowing) {
  // The first item throws at once; the rest are slow and touch caller
  // state.  All of them must have finished by the time the error surfaces.
  runtime::ThreadPool pool(4);
  const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      (void)runtime::parallel_map(pool, items,
                                  [&finished](const int& x, std::size_t) {
                                    if (x == 0) throw std::logic_error("0");
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(5));
                                    ++finished;
                                    return x;
                                  }),
      std::logic_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(ParallelMap, MoveOnlyResultsArriveInInputOrder) {
  runtime::ThreadPool pool(3);
  const std::vector<int> items = {4, 0, 7, 2, 9, 1};
  const std::vector<std::unique_ptr<int>> boxed = runtime::parallel_map(
      pool, items,
      [](const int& x, std::size_t) { return std::make_unique<int>(x); });
  ASSERT_EQ(boxed.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_NE(boxed[i], nullptr);
    EXPECT_EQ(*boxed[i], items[i]);
  }
}

TEST(ParallelMap, SingleWorkerRunsItemsInInputOrder) {
  // Off-pool submissions drain FIFO, so one worker visits the items in
  // input order.
  runtime::ThreadPool pool(1);
  const std::vector<int> items = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  std::vector<int> visited;  // single worker: appends are serial
  (void)runtime::parallel_map(pool, items,
                              [&visited](const int& x, std::size_t) {
                                visited.push_back(x);
                                return x;
                              });
  EXPECT_EQ(visited, items);
}

// ---------------------------------------------------------------------------
// Determinism: the batch path (CachingSolver::solve_many) is bit-identical
// to serving each request alone, for all thread counts and both profile
// backends.
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

TEST_P(RuntimeDeterminism, SolveManyMatchesPortfolio) {
  // Every batch answer is the sequential best_of_portfolio answer for its
  // request's canonical form, mapped back to the requester's item order.
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  service::ServeParams params;
  params.threads = threads;
  params.backend = backend;
  service::CachingSolver solver(params);
  const std::vector<service::SolveResponse> responses =
      solver.solve_many(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const service::CanonicalForm form = service::canonicalize(batch[i]);
    std::string winner;
    const Packing canonical =
        algo::best_of_portfolio(form.instance, &winner, backend);
    EXPECT_EQ(responses[i].packing,
              service::restore_item_order(form, canonical))
        << batch[i].summary();
    EXPECT_EQ(responses[i].winner, winner) << batch[i].summary();
    EXPECT_EQ(responses[i].peak, peak_height(form.instance, canonical))
        << batch[i].summary();
  }
}

TEST_P(RuntimeDeterminism, SolveManyMatchesSequentialLoop) {
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  service::ServeParams params;
  params.backend = backend;
  params.bypass_cache = true;  // every request computed, none served cached
  service::CachingSolver sequential_solver(params);
  std::vector<service::SolveResponse> sequential;
  for (const Instance& instance : batch) {
    sequential.push_back(sequential_solver.solve(instance));
  }
  params.threads = threads;
  service::CachingSolver batch_solver(params);
  EXPECT_EQ(batch_solver.solve_many(batch), sequential);
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

// ---------------------------------------------------------------------------
// The batch path through the cache and on the solve54 engine, for every
// thread count x backend.
// ---------------------------------------------------------------------------

class BatchPath
    : public ::testing::TestWithParam<std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(BatchPath, Solve54BatchMatchesSequentialLoop) {
  const auto& [threads, backend] = GetParam();
  std::vector<Instance> batch;
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    batch.push_back(golden.instance);
  }
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  params.backend = backend;
  params.bypass_cache = true;
  service::CachingSolver sequential_solver(params);
  std::vector<service::SolveResponse> sequential;
  for (const Instance& instance : batch) {
    sequential.push_back(sequential_solver.solve(instance));
  }
  params.threads = threads;
  service::CachingSolver batch_solver(params);
  EXPECT_EQ(batch_solver.solve_many(batch), sequential);
}

TEST_P(BatchPath, PermutedCopiesShareOneComputationPerKey) {
  // Each request appears twice: as drawn and with its items reversed.  The
  // reversed copy is the same canonical key, so the cache computes every
  // key once, and each answer (hit, join or miss) equals serving that
  // request alone with the cache bypassed.
  const auto& [threads, backend] = GetParam();
  std::vector<Instance> batch = determinism_instances();
  const std::size_t distinct = batch.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    std::vector<Item> reversed(batch[i].items().rbegin(),
                               batch[i].items().rend());
    batch.emplace_back(batch[i].strip_width(), reversed);
  }
  service::ServeParams params;
  params.backend = backend;
  params.threads = threads;
  service::CachingSolver cached(params);
  const std::vector<service::SolveResponse> responses =
      cached.solve_many(batch);
  params.bypass_cache = true;
  service::CachingSolver alone(params);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const service::SolveResponse expected = alone.solve(batch[i]);
    EXPECT_EQ(responses[i].packing, expected.packing) << "request " << i;
    EXPECT_EQ(responses[i].peak, expected.peak) << "request " << i;
    EXPECT_EQ(responses[i].winner, expected.winner) << "request " << i;
    EXPECT_NO_THROW(validate_packing(batch[i], responses[i].packing));
  }
  const service::CacheStats stats = cached.stats();
  EXPECT_EQ(stats.misses, distinct);
  EXPECT_EQ(stats.hits + stats.inflight_joins, distinct);
}

TEST_P(BatchPath, RepeatedBatchIsServedFromTheCache) {
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  service::ServeParams params;
  params.backend = backend;
  params.threads = threads;
  service::CachingSolver solver(params);
  const std::vector<service::SolveResponse> first = solver.solve_many(batch);
  const service::CacheStats cold = solver.stats();
  EXPECT_EQ(cold.misses, batch.size());
  std::vector<service::SolveResponse> second = solver.solve_many(batch);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].outcome, service::CacheOutcome::kMiss) << i;
    EXPECT_EQ(second[i].outcome, service::CacheOutcome::kHit) << i;
    second[i].outcome = service::CacheOutcome::kMiss;
  }
  EXPECT_EQ(second, first);
  const service::CacheStats warm = solver.stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits - cold.hits, batch.size());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, BatchPath,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

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
