// Concurrent callers of the one serve path (CachingSolver::solve): every
// answer is bit-identical to serving that request alone, for 1, 2 and 8
// callers on narrow and wide strips, and single flight computes each
// distinct key once.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/packing.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "util/prng.hpp"

#include "cache_outcome_print.hpp"
#include "concurrent_serve.hpp"
#include "strip_shapes.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// Determinism: concurrent callers get exactly the answers of serving each
// request alone, for every caller count and both strip shapes (narrow
// strips and widened ones, both on the run-length profile;
// tests/strip_shapes.hpp).
// ---------------------------------------------------------------------------

using testing_shapes::ThreadsAndShape;

/// Requests drawn at random; the golden corpus follows them in the
/// determinism batch.
constexpr std::size_t kDrawnRequests = 5;

/// The determinism batch in the given strip shape (narrow as drawn): five
/// random draws, then the golden corpus.
std::vector<Instance> determinism_batch(testing_shapes::StripShape shape) {
  std::vector<Instance> instances;
  Rng rng(424242);
  instances.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  instances.push_back(gen::tall_items(30, 48, 20, rng));
  instances.push_back(gen::wide_items(24, 48, 8, rng));
  instances.push_back(gen::correlated(32, 64, 32, 12, rng));
  instances.push_back(gen::perfect_packing(25, 40, 20, rng));
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    instances.push_back(golden.instance);
  }
  return testing_shapes::shaped_batch(shape, instances);
}

class RuntimeDeterminism : public ::testing::TestWithParam<ThreadsAndShape> {};

TEST_P(RuntimeDeterminism, ServedAnswersMatchSolve54) {
  // Every answer is the sequential solve54 answer for its request's
  // canonical form, mapped back to the requester's item order.  Every
  // golden instance is certified, so its winner is the witness member.
  const auto& [threads, shape] = GetParam();
  const std::vector<Instance> batch = determinism_batch(shape);
  service::CachingSolver solver;
  const std::vector<service::SolveResponse> responses =
      testing_serve::serve_concurrently(solver, batch, threads);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const service::CanonicalForm form = service::canonicalize(batch[i]);
    const approx::Approx54Result direct = approx::solve54(form.instance);
    EXPECT_EQ(responses[i].packing,
              service::restore_item_order(form, direct.packing))
        << batch[i].summary();
    EXPECT_EQ(responses[i].peak, direct.peak) << batch[i].summary();
    EXPECT_EQ(responses[i].winner, direct.winner) << batch[i].summary();
    if (i >= kDrawnRequests) {
      std::string witness;
      (void)algo::best_of_portfolio(form.instance, &witness);
      EXPECT_EQ(responses[i].winner, witness) << batch[i].summary();
    }
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
  service::CachingSolver concurrent_solver;
  EXPECT_EQ(
      testing_serve::serve_concurrently(concurrent_solver, batch, threads),
      sequential);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndShapes, RuntimeDeterminism,
                         testing_shapes::threads_and_shapes(),
                         testing_shapes::threads_and_shape_name);

// ---------------------------------------------------------------------------
// Single flight and the warm cache under concurrent callers, for every
// caller count x strip shape.
// ---------------------------------------------------------------------------

class BatchPath : public ::testing::TestWithParam<ThreadsAndShape> {};

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
  service::CachingSolver cached;
  const std::vector<service::SolveResponse> responses =
      testing_serve::serve_concurrently(cached, batch, threads);
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
  service::CachingSolver solver;
  const std::vector<service::SolveResponse> first =
      testing_serve::serve_concurrently(solver, batch, threads);
  const service::CacheStats cold = solver.stats();
  EXPECT_EQ(cold.misses, batch.size());
  std::vector<service::SolveResponse> second =
      testing_serve::serve_concurrently(solver, batch, threads);
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
