#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/portfolio.hpp"
#include "core/packing.hpp"
#include "gen/families.hpp"
#include "runtime/channel.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// Channel unit tests.
// ---------------------------------------------------------------------------

TEST(Channel, FifoOrderAndDrainAfterClose) {
  runtime::Channel<int> channel;
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  EXPECT_TRUE(channel.push(3));
  EXPECT_EQ(channel.pending(), 3u);
  channel.close();
  EXPECT_TRUE(channel.closed());
  // Closed but not drained: buffered slots still pop, in FIFO order.
  EXPECT_EQ(channel.pop(), std::optional<int>(1));
  EXPECT_EQ(channel.pop(), std::optional<int>(2));
  EXPECT_EQ(channel.pop(), std::optional<int>(3));
  // Drained: end-of-stream.
  EXPECT_EQ(channel.pop(), std::nullopt);
  EXPECT_EQ(channel.pop(), std::nullopt);
}

TEST(Channel, PushAfterCloseIsRefused) {
  runtime::Channel<int> channel;
  channel.close();
  EXPECT_FALSE(channel.push(7));
  EXPECT_FALSE(channel.push_exception(
      std::make_exception_ptr(std::runtime_error("late"))));
  EXPECT_EQ(channel.pending(), 0u);
  EXPECT_EQ(channel.pop(), std::nullopt);
}

TEST(Channel, CloseIsIdempotent) {
  runtime::Channel<int> channel;
  channel.close();
  channel.close();
  EXPECT_TRUE(channel.closed());
}

TEST(Channel, ExceptionSlotsRethrowInQueueOrder) {
  runtime::Channel<int> channel;
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push_exception(
      std::make_exception_ptr(std::logic_error("first"))));
  EXPECT_TRUE(channel.push(2));
  EXPECT_TRUE(channel.push_exception(
      std::make_exception_ptr(std::runtime_error("second"))));
  channel.close();
  EXPECT_EQ(channel.pop(), std::optional<int>(1));
  EXPECT_THROW((void)channel.pop(), std::logic_error);
  EXPECT_EQ(channel.pop(), std::optional<int>(2));
  EXPECT_THROW((void)channel.pop(), std::runtime_error);
  EXPECT_EQ(channel.pop(), std::nullopt);
}

TEST(Channel, TryPopNeverBlocks) {
  runtime::Channel<int> channel;
  EXPECT_EQ(channel.try_pop(), std::nullopt);
  channel.push(9);
  EXPECT_EQ(channel.try_pop(), std::optional<int>(9));
  EXPECT_EQ(channel.try_pop(), std::nullopt);
  EXPECT_FALSE(channel.closed());
}

TEST(Channel, BlockingPopWakesOnPush) {
  runtime::Channel<int> channel;
  std::thread producer([&channel]() { channel.push(42); });
  EXPECT_EQ(channel.pop(), std::optional<int>(42));
  producer.join();
}

TEST(Channel, BlockingPopWakesOnClose) {
  runtime::Channel<int> channel;
  std::thread closer([&channel]() { channel.close(); });
  EXPECT_EQ(channel.pop(), std::nullopt);
  closer.join();
}

TEST(Channel, ManyProducersOneConsumer) {
  runtime::Channel<int> channel;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 50;
  std::vector<std::thread> producers;
  std::atomic<int> remaining{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, &remaining, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        channel.push(p * kPerProducer + i);
      }
      if (remaining.fetch_sub(1) == 1) channel.close();
    });
  }
  std::set<int> seen;
  while (const std::optional<int> value = channel.pop()) seen.insert(*value);
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
}

// ---------------------------------------------------------------------------
// Streaming batch solves.
// ---------------------------------------------------------------------------

std::vector<runtime::BatchResult> sequential_batch(
    const std::vector<Instance>& batch,
    ProfileBackendKind backend = ProfileBackendKind::kAuto) {
  std::vector<runtime::BatchResult> results;
  for (const Instance& instance : batch) {
    runtime::BatchResult result;
    result.packing = algo::best_of_portfolio(instance, &result.winner, backend);
    result.peak = peak_height(instance, result.packing);
    results.push_back(std::move(result));
  }
  return results;
}

TEST(SolveManyStream, EmptyBatchClosesSinkAndReturnsEmpty) {
  runtime::Channel<runtime::BatchEvent> sink;
  EXPECT_TRUE(runtime::solve_many_stream({}, sink).empty());
  EXPECT_TRUE(sink.closed());
  EXPECT_EQ(sink.pop(), std::nullopt);
}

TEST(SolveManyStream, SingleThreadPoolStreamsEveryInstance) {
  Rng rng(11);
  std::vector<Instance> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(gen::random_uniform(12, 24, 12, 6, rng));
  }
  runtime::ThreadPool pool(1);
  runtime::Channel<runtime::BatchEvent> sink;
  const std::vector<runtime::BatchResult> streamed =
      runtime::solve_many_stream(pool, batch, sink);
  EXPECT_EQ(streamed, sequential_batch(batch));
  EXPECT_TRUE(sink.closed());
  // One event per instance; with one worker the completion order is the
  // input order, and every event equals the final vector at its index.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::optional<runtime::BatchEvent> event = sink.pop();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->index, i);
    EXPECT_EQ(event->result, streamed[i]);
  }
  EXPECT_EQ(sink.pop(), std::nullopt);
}

TEST(SolveManyStream, FirstEventArrivesBeforeTheBatchCompletes) {
  // Index 0 is deliberately slow (large instance), index 1 tiny: with two
  // workers the tiny one finishes and streams while the big one still runs.
  Rng rng(77);
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(512, 256, 64, 24, rng));
  batch.push_back(gen::random_uniform(4, 8, 4, 3, rng));
  runtime::Channel<runtime::BatchEvent> sink;
  std::atomic<bool> batch_done{false};
  auto solve = std::async(std::launch::async, [&]() {
    runtime::ThreadPool pool(2);
    std::vector<runtime::BatchResult> results =
        runtime::solve_many_stream(pool, batch, sink);
    batch_done.store(true, std::memory_order_release);
    return results;
  });
  const std::optional<runtime::BatchEvent> first = sink.pop();
  const bool before_completion = !batch_done.load(std::memory_order_acquire);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->index, 1u);  // the tiny instance resolves first
  std::size_t events = 1;
  while (sink.pop()) ++events;
  const std::vector<runtime::BatchResult> streamed = solve.get();
  EXPECT_TRUE(before_completion);
  EXPECT_EQ(events, batch.size());
  EXPECT_EQ(streamed, sequential_batch(batch));
}

TEST(SolveManyStream, ThrowingInstanceClosesSinkAndRethrows) {
  Rng rng(5);
  // Index 1 is an empty instance: every portfolio member refuses it, so the
  // worker throws mid-stream.  The good instances still stream.
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(8, 16, 8, 4, rng));
  batch.push_back(Instance(16, {}));
  batch.push_back(gen::random_uniform(8, 16, 8, 4, rng));
  runtime::ThreadPool pool(2);
  runtime::Channel<runtime::BatchEvent> sink;
  EXPECT_THROW((void)runtime::solve_many_stream(pool, batch, sink),
               InvalidInput);
  EXPECT_TRUE(sink.closed());
  // Drain the stream: the two good instances delivered value events, the
  // bad one an exception slot (rethrown at the consumer).
  std::size_t value_events = 0;
  std::size_t error_events = 0;
  for (;;) {
    try {
      const std::optional<runtime::BatchEvent> event = sink.pop();
      if (!event.has_value()) break;
      EXPECT_NE(event->index, 1u);
      ++value_events;
    } catch (const InvalidInput&) {
      ++error_events;
    }
  }
  EXPECT_EQ(value_events, 2u);
  EXPECT_EQ(error_events, 1u);
}

TEST(SolveManyStream, FinalReductionRethrowsFirstErrorInInputOrder) {
  // The streaming reduction inherits parallel_map's rule: every task is
  // awaited, then the first error in *input* order is rethrown — even when
  // a later-input error completes (and streams) earlier.
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

class StreamingDeterminism
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(StreamingDeterminism, StreamedFinalsMatchSequential) {
  const auto& [threads, backend] = GetParam();
  Rng rng(20240729);
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  batch.push_back(gen::tall_items(30, 48, 20, rng));
  batch.push_back(gen::wide_items(24, 48, 8, rng));
  batch.push_back(gen::perfect_packing(25, 40, 20, rng));
  // Wide, lightly covered: kAuto resolves to the sparse backend.
  batch.push_back(gen::random_uniform(24, 4096, 6, 10, rng));
  const std::vector<runtime::BatchResult> expected =
      sequential_batch(batch, backend);

  runtime::ThreadPool pool(threads);
  runtime::Channel<runtime::BatchEvent> sink;
  std::atomic<Height> live_peak{runtime::kPeakUnknown};
  const std::vector<runtime::BatchResult> streamed =
      runtime::solve_many_stream(pool, batch, sink, backend, &live_peak);
  EXPECT_EQ(streamed, expected);

  // The event set is a projection of the final vector: every index exactly
  // once, every payload equal to the vector at that index (the order is
  // completion order — scheduling-dependent by design, so not asserted).
  std::set<std::size_t> indices;
  while (const std::optional<runtime::BatchEvent> event = sink.pop()) {
    EXPECT_TRUE(indices.insert(event->index).second);
    ASSERT_LT(event->index, expected.size());
    EXPECT_EQ(event->result, expected[event->index]);
  }
  EXPECT_EQ(indices.size(), batch.size());
  // live_peak pairs with the events (release/acquire): it ends at the best
  // peak over the batch.
  Height best = expected.front().peak;
  for (const runtime::BatchResult& result : expected) {
    best = std::min(best, result.peak);
  }
  EXPECT_EQ(live_peak.load(std::memory_order_acquire), best);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, StreamingDeterminism,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Portfolio event streaming.
// ---------------------------------------------------------------------------

TEST(PortfolioEvents, OneEventPerMemberAndChannelCloses) {
  Rng rng(31);
  const Instance instance = gen::random_uniform(30, 48, 24, 10, rng);
  runtime::ThreadPool pool(4);
  runtime::Channel<runtime::PortfolioEvent> events;
  std::string winner;
  const Packing best = runtime::parallel_best_of_portfolio(
      pool, instance, &winner, ProfileBackendKind::kAuto, nullptr, &events);
  EXPECT_TRUE(events.closed());
  EXPECT_EQ(best, algo::best_of_portfolio(instance));

  std::set<std::size_t> members;
  Height best_streamed = runtime::kPeakUnknown;
  while (const std::optional<runtime::PortfolioEvent> event = events.pop()) {
    EXPECT_TRUE(members.insert(event->algorithm).second);
    EXPECT_FALSE(event->name.empty());
    best_streamed = std::min(best_streamed, event->peak);
  }
  EXPECT_EQ(members.size(), algo::baseline_portfolio_size());
  EXPECT_EQ(best_streamed, peak_height(instance, best));
}

TEST(PortfolioEvents, ConvenienceOverloadThreadsTheChannel) {
  Rng rng(32);
  const Instance instance = gen::random_uniform(20, 32, 16, 8, rng);
  runtime::Channel<runtime::PortfolioEvent> events;
  runtime::ParallelOptions options;
  options.threads = 3;
  options.events = &events;
  const Packing best =
      runtime::parallel_best_of_portfolio(instance, nullptr, options);
  EXPECT_TRUE(events.closed());
  std::size_t count = 0;
  while (events.pop()) ++count;
  EXPECT_EQ(count, algo::baseline_portfolio_size());
  EXPECT_EQ(best, algo::best_of_portfolio(instance));
}

TEST(PortfolioEvents, PreconditionFailureStillClosesTheChannel) {
  // A consumer blocked on the events channel must wake up even when the
  // run never starts (empty instance refused up front).
  runtime::ThreadPool pool(2);
  runtime::Channel<runtime::PortfolioEvent> events;
  const Instance empty(8, {});
  EXPECT_THROW((void)runtime::parallel_best_of_portfolio(
                   pool, empty, nullptr, ProfileBackendKind::kAuto, nullptr,
                   &events),
               InvalidInput);
  EXPECT_TRUE(events.closed());
  EXPECT_EQ(events.pending(), 0u);
  EXPECT_EQ(events.pop(), std::nullopt);
}

TEST(PortfolioEvents, BaselinePortfolioSizeMatchesEveryBackend) {
  EXPECT_EQ(algo::baseline_portfolio_size(), algo::baseline_portfolio().size());
  EXPECT_EQ(algo::baseline_portfolio_size(),
            algo::baseline_portfolio(ProfileBackendKind::kDense).size());
  EXPECT_EQ(algo::baseline_portfolio_size(),
            algo::baseline_portfolio(ProfileBackendKind::kSparse).size());
}

// ---------------------------------------------------------------------------
// ThreadPool submit-after-stop.
// ---------------------------------------------------------------------------

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

}  // namespace
}  // namespace dsp
