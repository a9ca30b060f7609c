#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
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

#include "strip_shapes.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// parallel_map: the one fan-out loop.
// ---------------------------------------------------------------------------

TEST(ParallelMap, PreservesInputOrderAndRethrows) {
  const std::vector<int> items = {5, 3, 8, 1, 9};
  const auto doubled = runtime::parallel_map(
      4, items, [](const int& x, std::size_t) { return 2 * x; });
  EXPECT_EQ(doubled, (std::vector<int>{10, 6, 16, 2, 18}));
  EXPECT_THROW(
      (void)runtime::parallel_map(4, items,
                                  [](const int& x, std::size_t) -> int {
                                    if (x == 8) throw std::logic_error("8");
                                    return x;
                                  }),
      std::logic_error);
}

TEST(ParallelMap, RethrowsFirstErrorInInputOrder) {
  // Every item runs, then the first error in *input* order is rethrown —
  // even when a later-input error completes earlier.
  const std::vector<int> items = {0, 1, 2, 3};
  try {
    (void)runtime::parallel_map(2, items, [&](const int& x, std::size_t) {
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
  const std::vector<int> none;
  EXPECT_TRUE(runtime::parallel_map(2, none, [](const int& x, std::size_t) {
                return x;
              }).empty());
  EXPECT_EQ(runtime::scheduler_totals().executed, before.executed);
}

TEST(ParallelMap, PassesEachItemItsInputIndex) {
  std::vector<int> items(50);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(3 * i + 1);
  }
  const auto pairs = runtime::parallel_map(
      4, items, [&items](const int& x, std::size_t index) {
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
  const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  std::atomic<int> finished{0};
  EXPECT_THROW(
      (void)runtime::parallel_map(4, items,
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
  const std::vector<int> items = {4, 0, 7, 2, 9, 1};
  const std::vector<std::unique_ptr<int>> boxed = runtime::parallel_map(
      3, items,
      [](const int& x, std::size_t) { return std::make_unique<int>(x); });
  ASSERT_EQ(boxed.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_NE(boxed[i], nullptr);
    EXPECT_EQ(*boxed[i], items[i]);
  }
}

TEST(ParallelMap, SingleWorkerRunsItemsInInputOrder) {
  // The shared cursor hands out indices in increasing order, so one worker
  // visits the items in input order.
  const std::vector<int> items = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  std::vector<int> visited;  // single worker: appends are serial
  (void)runtime::parallel_map(1, items, [&visited](const int& x, std::size_t) {
    visited.push_back(x);
    return x;
  });
  EXPECT_EQ(visited, items);
}

TEST(ParallelMap, BlockedItemDoesNotStallTheRest) {
  // Item 0 blocks until every other item has run.  Any static split of the
  // items over 2 workers queues some of them behind item 0 and hangs until
  // the deadline; the shared cursor lets the other worker take them all.
  const std::vector<int> items(8, 0);
  std::atomic<std::size_t> done{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::vector<bool> unblocked = runtime::parallel_map(
      2, items, [&](const int&, std::size_t index) {
        if (index != 0) {
          ++done;
          return true;
        }
        while (done.load() < items.size() - 1) {
          if (std::chrono::steady_clock::now() > deadline) return false;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
      });
  EXPECT_TRUE(unblocked[0]);
  EXPECT_EQ(done.load(), items.size() - 1);
}

TEST(ParallelMap, ZeroWorkersMeansHardwareThreads) {
  // workers = 0 starts hardware_threads() threads: as many items as that
  // all meet at a barrier, so each ran on a thread of its own ...
  const std::size_t hardware = runtime::hardware_threads();
  std::atomic<std::size_t> arrived{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const auto meet = [&](const int&, std::size_t) {
    ++arrived;
    while (arrived.load() < hardware &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::this_thread::get_id();
  };
  const std::vector<std::thread::id> met =
      runtime::parallel_map(0, std::vector<int>(hardware, 0), meet);
  EXPECT_EQ(std::set<std::thread::id>(met.begin(), met.end()).size(),
            hardware);
  // ... and more items than that never run on more threads.
  const std::vector<std::thread::id> ran = runtime::parallel_map(
      0, std::vector<int>(4 * hardware, 0),
      [](const int&, std::size_t) { return std::this_thread::get_id(); });
  EXPECT_LE(std::set<std::thread::id>(ran.begin(), ran.end()).size(),
            hardware);
}

// The cursor contract at every worker count, including 0 (hardware) and
// more workers than items.
class ParallelMapWorkers : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelMapWorkers, EveryIndexRunsExactlyOnce) {
  for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{257}}) {
    const std::vector<int> items(size, 0);
    std::vector<std::atomic<int>> visits(size);
    const runtime::SchedulerCounters before = runtime::scheduler_totals();
    const std::vector<std::size_t> indices = runtime::parallel_map(
        GetParam(), items, [&visits](const int&, std::size_t index) {
          ++visits[index];
          return index;
        });
    EXPECT_EQ(runtime::scheduler_totals().executed - before.executed, size);
    ASSERT_EQ(indices.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "size " << size << " index " << i;
      EXPECT_EQ(indices[i], i);
    }
  }
}

TEST_P(ParallelMapWorkers, ErrorsNeitherStopTheLoopNorReorder) {
  // Every third item throws its own index; all items still run, and the
  // rethrown error is item 0's.
  const std::vector<int> items(40, 0);
  std::atomic<std::size_t> ran{0};
  try {
    (void)runtime::parallel_map(
        GetParam(), items, [&ran](const int&, std::size_t index) {
          ++ran;
          if (index % 3 == 0) throw std::out_of_range(std::to_string(index));
          return index;
        });
    FAIL() << "parallel_map must rethrow";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "0");
  }
  EXPECT_EQ(ran.load(), items.size());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelMapWorkers,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{3},
                                           std::size_t{64}),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Determinism: the batch path (CachingSolver::solve_many) is bit-identical
// to serving each request alone, for all thread counts and both strip
// shapes (narrow strips and widened ones, both on the run-length profile;
// tests/strip_shapes.hpp).
// ---------------------------------------------------------------------------

using testing_shapes::ThreadsAndShape;

/// The determinism batch in the given strip shape (narrow as drawn).
std::vector<Instance> determinism_batch(testing_shapes::StripShape shape) {
  std::vector<Instance> instances;
  Rng rng(424242);
  instances.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  instances.push_back(gen::tall_items(30, 48, 20, rng));
  instances.push_back(gen::wide_items(24, 48, 8, rng));
  instances.push_back(gen::correlated(32, 64, 32, 12, rng));
  instances.push_back(gen::perfect_packing(25, 40, 20, rng));
  return testing_shapes::shaped_batch(shape, instances);
}

class RuntimeDeterminism : public ::testing::TestWithParam<ThreadsAndShape> {};

TEST_P(RuntimeDeterminism, SolveManyMatchesPortfolio) {
  // Every batch answer is the sequential best_of_portfolio answer for its
  // request's canonical form, mapped back to the requester's item order.
  const auto& [threads, shape] = GetParam();
  const std::vector<Instance> batch = determinism_batch(shape);
  service::ServeParams params;
  params.threads = threads;
  service::CachingSolver solver(params);
  const std::vector<service::SolveResponse> responses =
      solver.solve_many(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const service::CanonicalForm form = service::canonicalize(batch[i]);
    std::string winner;
    const Packing canonical = algo::best_of_portfolio(form.instance, &winner);
    EXPECT_EQ(responses[i].packing,
              service::restore_item_order(form, canonical))
        << batch[i].summary();
    EXPECT_EQ(responses[i].winner, winner) << batch[i].summary();
    EXPECT_EQ(responses[i].peak, peak_height(form.instance, canonical))
        << batch[i].summary();
  }
}

TEST_P(RuntimeDeterminism, SolveManyMatchesSequentialLoop) {
  const auto& [threads, shape] = GetParam();
  const std::vector<Instance> batch = determinism_batch(shape);
  // The requests are distinct, so a fresh solver computes every one.
  service::CachingSolver sequential_solver;
  std::vector<service::SolveResponse> sequential;
  for (const Instance& instance : batch) {
    sequential.push_back(sequential_solver.solve(instance));
  }
  service::ServeParams params;
  params.threads = threads;
  service::CachingSolver batch_solver(params);
  EXPECT_EQ(batch_solver.solve_many(batch), sequential);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndShapes, RuntimeDeterminism,
                         testing_shapes::threads_and_shapes(),
                         testing_shapes::threads_and_shape_name);

// ---------------------------------------------------------------------------
// The batch path through the cache and on the solve54 engine, for every
// thread count x strip shape.
// ---------------------------------------------------------------------------

class BatchPath : public ::testing::TestWithParam<ThreadsAndShape> {};

TEST_P(BatchPath, Solve54BatchMatchesSequentialLoop) {
  const auto& [threads, shape] = GetParam();
  std::vector<Instance> golden;
  for (const gen::GoldenInstance& instance : gen::golden_corpus()) {
    golden.push_back(instance.instance);
  }
  const std::vector<Instance> batch =
      testing_shapes::shaped_batch(shape, golden);
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
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
  // request alone on a fresh solver.
  const auto& [threads, shape] = GetParam();
  std::vector<Instance> batch = determinism_batch(shape);
  const std::size_t distinct = batch.size();
  for (std::size_t i = 0; i < distinct; ++i) {
    std::vector<Item> reversed(batch[i].items().rbegin(),
                               batch[i].items().rend());
    batch.emplace_back(batch[i].strip_width(), reversed);
  }
  service::ServeParams params;
  params.threads = threads;
  service::CachingSolver cached(params);
  const std::vector<service::SolveResponse> responses =
      cached.solve_many(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    service::CachingSolver alone;
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
  const auto& [threads, shape] = GetParam();
  const std::vector<Instance> batch = determinism_batch(shape);
  service::ServeParams params;
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

INSTANTIATE_TEST_SUITE_P(ThreadsAndShapes, BatchPath,
                         testing_shapes::threads_and_shapes(),
                         testing_shapes::threads_and_shape_name);

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
