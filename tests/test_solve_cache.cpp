// The single-flight LRU solve cache and the CachingSolver: exactly-once
// computation under concurrent identical requests, bit-identical hits, LRU
// eviction at capacity (the whole budget is one LRU, so an entry is only
// oversized against all of it), fingerprint separation, and the cached ==
// solve54-direct determinism contract across thread counts and strip shapes
// (narrow and wide strips, tests/strip_shapes.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "cache_outcome_print.hpp"
#include "concurrent_serve.hpp"
#include "strip_shapes.hpp"
#include "theorem5_corpus.hpp"

namespace dsp::service {
namespace {

CacheKey key_of(std::uint64_t a, std::uint64_t fingerprint = 1) {
  return CacheKey{Hash128{a, ~a}, fingerprint};
}

CachedSolve small_solve(Height peak) {
  CachedSolve solve;
  solve.packing.start = {0, 1, 2};
  solve.peak = peak;
  solve.winner = "test";
  return solve;
}

// ---------------------------------------------------------------------------
// SolveCache unit tests.
// ---------------------------------------------------------------------------

TEST(SolveCacheTest, MissThenHit) {
  SolveCache cache;
  int computed = 0;
  const auto compute = [&computed]() {
    ++computed;
    return small_solve(7);
  };
  const SolveCache::Lookup first = cache.get_or_compute(key_of(1), compute);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.value->peak, 7);
  const SolveCache::Lookup second = cache.get_or_compute(key_of(1), compute);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(second.value, first.value);  // the same shared entry, not a copy
  EXPECT_EQ(computed, 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCacheTest, DistinctKeysDoNotCollide) {
  SolveCache cache;
  int computed = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    const auto lookup = cache.get_or_compute(key_of(k), [&]() {
      ++computed;
      return small_solve(static_cast<Height>(k));
    });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kMiss);
  }
  EXPECT_EQ(computed, 32);
  for (std::uint64_t k = 0; k < 32; ++k) {
    const auto lookup = cache.get_or_compute(key_of(k), [&]() {
      ++computed;
      return small_solve(0);
    });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, static_cast<Height>(k));
  }
  EXPECT_EQ(computed, 32);
}

TEST(SolveCacheTest, SameHashDifferentFingerprintIsADifferentEntry) {
  SolveCache cache;
  (void)cache.get_or_compute(key_of(5, 100), []() { return small_solve(1); });
  const auto other =
      cache.get_or_compute(key_of(5, 200), []() { return small_solve(2); });
  EXPECT_EQ(other.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(other.value->peak, 2);
}

TEST(SolveCacheTest, SingleFlightRunsTheComputationExactlyOnce) {
  SolveCache cache;
  std::atomic<int> computed{0};
  std::atomic<int> inside{0};
  constexpr int kThreads = 8;
  // The first thread in holds the computation open until every thread has
  // issued its lookup, so all others must take the join path.
  std::atomic<int> arrived{0};
  const auto compute = [&]() {
    ++computed;
    ++inside;
    while (arrived.load() < kThreads) std::this_thread::yield();
    --inside;
    return small_solve(42);
  };
  std::vector<std::future<SolveCache::Lookup>> lookups;
  lookups.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    lookups.push_back(std::async(std::launch::async, [&]() {
      ++arrived;
      return cache.get_or_compute(key_of(77), compute);
    }));
  }
  int misses = 0, joins = 0, hits = 0;
  for (std::future<SolveCache::Lookup>& lookup : lookups) {
    const SolveCache::Lookup result = lookup.get();
    EXPECT_EQ(result.value->peak, 42);
    if (result.outcome == CacheOutcome::kMiss) ++misses;
    if (result.outcome == CacheOutcome::kJoined) ++joins;
    if (result.outcome == CacheOutcome::kHit) ++hits;
  }
  EXPECT_EQ(computed.load(), 1) << "single flight must compute exactly once";
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(joins + hits, kThreads - 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inflight_joins + stats.hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SolveCacheTest, ComputeErrorsPropagateToJoinersAndAreNotCached) {
  SolveCache cache;
  std::atomic<int> computed{0};
  std::atomic<bool> release{false};
  const auto failing = [&]() -> CachedSolve {
    ++computed;
    while (!release.load()) std::this_thread::yield();
    throw InvalidInput("synthetic solve failure");
  };
  auto first = std::async(std::launch::async, [&]() {
    return cache.get_or_compute(key_of(13), failing);
  });
  // Wait until the computation is in flight, then join it.
  while (computed.load() == 0) std::this_thread::yield();
  auto joiner = std::async(std::launch::async, [&]() {
    return cache.get_or_compute(key_of(13), failing);
  });
  release = true;
  EXPECT_THROW((void)first.get(), InvalidInput);
  EXPECT_THROW((void)joiner.get(), InvalidInput);
  // Nothing was cached: the next request recomputes (and can succeed).
  const auto retry =
      cache.get_or_compute(key_of(13), []() { return small_solve(3); });
  EXPECT_EQ(retry.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(retry.value->peak, 3);
}

TEST(SolveCacheTest, LruEvictsColdEntriesAtCapacity) {
  // Tiny byte budget: each entry charges 128 overhead plus payload, so the
  // budget below holds ~4 entries.
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  for (std::uint64_t k = 0; k < 16; ++k) (void)fill(k);
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 16u);
  EXPECT_LE(stats.bytes, 4u * 200u);
  // The oldest keys are gone: re-requesting key 0 is a miss again...
  EXPECT_EQ(fill(0).outcome, CacheOutcome::kMiss);
  // ...while the most recent key is still resident.
  EXPECT_EQ(fill(15).outcome, CacheOutcome::kHit);
}

TEST(SolveCacheTest, LruRecencyIsUpdatedByHits) {
  // Budget for ~2 entries.
  SolveCache cache(CacheOptions{2 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill(1);
  (void)fill(2);
  EXPECT_EQ(fill(1).outcome, CacheOutcome::kHit);  // 1 is now the warm entry
  (void)fill(3);                                   // evicts 2, not 1
  EXPECT_EQ(fill(1).outcome, CacheOutcome::kHit);
  EXPECT_EQ(fill(2).outcome, CacheOutcome::kMiss);
}

TEST(SolveCacheTest, ClearDropsEntriesButKeepsCounters) {
  SolveCache cache;
  (void)cache.get_or_compute(key_of(1), []() { return small_solve(1); });
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(
      cache.get_or_compute(key_of(1), []() { return small_solve(1); }).outcome,
      CacheOutcome::kMiss);
}

TEST(SolveCacheTest, OversizedEntryDoesNotFlushWarmEntries) {
  // Regression: an entry larger than the whole budget used to evict
  // every resident entry before discovering it could not fit itself —
  // one pathological request flushed the warm cache.
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  for (std::uint64_t k = 1; k <= 3; ++k) (void)fill(k);
  const CacheStats before = cache.stats();
  ASSERT_EQ(before.entries, 3u);
  ASSERT_EQ(before.evictions, 0u);

  CachedSolve big;
  big.packing.start = {0};
  big.peak = 99;
  big.winner = std::string(2000, 'w');  // > the 800-byte budget
  const auto lookup =
      cache.get_or_compute(key_of(99), [&big]() { return big; });
  // The answer is still served (and counted as a miss)...
  EXPECT_EQ(lookup.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(lookup.value->winner, big.winner);

  // ...but the residents are untouched: no evictions, same entries/bytes,
  // and the oversized request is counted distinctly.
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.oversized, 1u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(fill(k).outcome, CacheOutcome::kHit) << "key " << k;
  }
  // The oversized value was never inserted: same request misses again.
  EXPECT_EQ(cache.get_or_compute(key_of(99), [&big]() { return big; }).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().oversized, 2u);
}

TEST(SolveCacheTest, ZeroCapacityBudgetIsRejectedLoudly) {
  // Regression: capacity 0 used to build a zero-byte cache that silently
  // dropped every insert — a 0% hit rate with no diagnostic.
  const CacheOptions zero_budget{0};
  EXPECT_THROW(SolveCache cache(zero_budget), InvalidInput);
  EXPECT_THROW(CachingSolver solver(ServeParams{}, zero_budget), InvalidInput);
}

/// A value charged exactly `bytes` (at least the fixed entry overhead plus
/// the three-start packing): the winner string pads it.
CachedSolve padded_solve(std::size_t bytes) {
  CachedSolve solve = small_solve(1);
  const std::size_t unpadded =
      128 + solve.packing.start.size() * sizeof(Length);
  solve.winner = std::string(bytes - unpadded, 'w');
  return solve;
}

TEST(SolveCacheTest, EntryIsOversizedOnlyAgainstTheWholeBudget) {
  // A ~6 KB entry in a 32 KiB cache fits: the oversized rule measures the
  // whole budget, not a slice of it.
  SolveCache cache(CacheOptions{32 << 10});
  const auto lookup = [&cache]() {
    return cache.get_or_compute(key_of(1), []() { return padded_solve(6000); });
  };
  EXPECT_EQ(lookup().outcome, CacheOutcome::kMiss);
  EXPECT_EQ(lookup().outcome, CacheOutcome::kHit);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversized, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 6000u);
}

TEST(SolveCacheTest, BudgetHoldsAsManyEntriesAsItsBytesAllow) {
  // 32 entries of 1 KiB fill a 32 KiB budget exactly: every one stays
  // resident, whatever its key hashes to.
  SolveCache cache(CacheOptions{32 << 10});
  for (std::uint64_t k = 0; k < 32; ++k) {
    (void)cache.get_or_compute(key_of(k), []() { return padded_solve(1024); });
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 32u);
  EXPECT_EQ(stats.bytes, 32u << 10);
  EXPECT_EQ(stats.evictions, 0u);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(cache
                  .get_or_compute(key_of(k),
                                  []() { return padded_solve(1024); })
                  .outcome,
              CacheOutcome::kHit)
        << "key " << k;
  }
}

TEST(SolveCacheTest, WarmInsertSkipsCountersAndObserver) {
  SolveCache cache(CacheOptions{64 << 10});
  int notified = 0;
  cache.set_insert_observer(
      [&notified](const CacheKey&, const std::shared_ptr<const CachedSolve>&) {
        ++notified;
      });
  // Warm-load insert: resident, but no counter movement and no observer
  // callback (replaying a log must not re-append it).
  cache.insert(key_of(1), small_solve(5));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(notified, 0);
  EXPECT_EQ(
      cache.get_or_compute(key_of(1), []() { return small_solve(5); }).outcome,
      CacheOutcome::kHit);
  // A real computed miss notifies exactly once.
  (void)cache.get_or_compute(key_of(2), []() { return small_solve(6); });
  EXPECT_EQ(notified, 1);
}

TEST(SolveCacheTest, ExportEntriesRoundTripsRecencyThroughInsert) {
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill(1);
  (void)fill(2);
  (void)fill(3);
  (void)fill(1);  // 1 becomes the warmest entry

  // Re-inserting the export in order reproduces the recency order in a
  // fresh cache: under pressure the same keys survive.
  SolveCache copy(CacheOptions{4 * 200});
  for (const CacheEntryView& entry : cache.export_entries()) {
    copy.insert(entry.key, *entry.value);
  }
  const auto fill_copy = [&copy](std::uint64_t k) {
    return copy.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill_copy(4);
  (void)fill_copy(5);  // evicts the cold end: 2, then 3 — never 1
  EXPECT_EQ(fill_copy(1).outcome, CacheOutcome::kHit);
}

TEST(SolveCacheTest, ExportIsOneColdToWarmOrderOverEveryKey) {
  // The export lists every resident key in global recency order, coldest
  // first, whatever the keys hash to.
  SolveCache cache(CacheOptions{1 << 20});
  for (std::uint64_t k = 0; k < 24; ++k) {
    (void)cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  }
  // Touch the even keys again, oldest first: they become the warm half.
  for (std::uint64_t k = 0; k < 24; k += 2) {
    (void)cache.get_or_compute(key_of(k), []() { return small_solve(0); });
  }
  std::vector<std::uint64_t> expected;
  for (std::uint64_t k = 1; k < 24; k += 2) expected.push_back(k);
  for (std::uint64_t k = 0; k < 24; k += 2) expected.push_back(k);
  std::vector<std::uint64_t> exported;
  for (const CacheEntryView& entry : cache.export_entries()) {
    exported.push_back(entry.key.instance_hash.hi);
  }
  EXPECT_EQ(exported, expected);
}

// ---------------------------------------------------------------------------
// Params fingerprints.
// ---------------------------------------------------------------------------

TEST(ParamsFingerprintTest, DistinctResultAffectingParamsNeverCollide) {
  // There is one serve pipeline and no result-affecting parameter, so the
  // distinct parameter sets are the retired ones: the two engines of the
  // "dsp-srv3" salt.  A store persisted under either must miss, not be
  // served as a solve54 answer (its winner or packing could differ).
  const std::uint64_t fingerprint = params_fingerprint(ServeParams{});
  EXPECT_NE(fingerprint, 0x3d55a26d51096d06ull);  // dsp-srv3, portfolio
  EXPECT_NE(fingerprint, 0x8763257025c7dd7bull);  // dsp-srv3, solve54
}

TEST(ParamsFingerprintTest, ExecutionKnobsDoNotFragmentTheCache) {
  // The cache budget shapes residency, never an answer: solvers with
  // different budgets share the fingerprint, so a persisted store warms a
  // daemon restarted with another --cache-mb.
  const ServeParams params;
  const CachingSolver small(params, CacheOptions{1 << 20});
  const CachingSolver large(params, CacheOptions{64 << 20});
  EXPECT_EQ(small.fingerprint(), large.fingerprint());
  EXPECT_EQ(small.fingerprint(), params_fingerprint(params));
}

TEST(ParamsFingerprintTest, DefaultFingerprintsArePinned) {
  // The fingerprint is half of every persisted cache key.  A change to the
  // absorbed field set or the served pipeline must come with a salt bump
  // (and a re-pin here), so a warm store written under another set can
  // never alias.
  EXPECT_EQ(params_fingerprint(ServeParams{}), 0x61492bc7746dccf0ull);
}

// ---------------------------------------------------------------------------
// CachingSolver: the serving contract.
// ---------------------------------------------------------------------------

std::vector<Instance> smart_grid_batch(std::size_t distinct,
                                       std::size_t repeats) {
  std::vector<Instance> batch;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t d = 0; d < distinct; ++d) {
      Rng rng(900 + d);  // same seed per d: repeated request
      batch.push_back(gen::smart_grid(12, 48, rng));
    }
  }
  return batch;
}

TEST(CachingSolverTest, HitReturnsTheBitIdenticalResponse) {
  CachingSolver solver;
  Rng rng(11);
  const Instance instance = gen::random_uniform(18, 32, 12, 8, rng);
  const SolveResponse cold = solver.solve(instance);
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  const SolveResponse warm = solver.solve(instance);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.packing, cold.packing);
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  ASSERT_NO_THROW(validate_packing(instance, warm.packing));
  EXPECT_EQ(peak_height(instance, warm.packing), warm.peak);
}

TEST(CachingSolverTest, PermutedRequestHitsAndIsRestoredToItsOwnOrder) {
  CachingSolver solver;
  // All-distinct (width, height) pairs: each item has exactly one canonical
  // slot, so the reversed request's starts must be the exact reversal.
  std::vector<Item> items;
  for (Length i = 1; i <= 12; ++i) items.push_back(Item{i, 2 * i + 1});
  const Instance instance(16, items);
  const SolveResponse cold = solver.solve(instance);

  std::vector<Item> reversed(items.rbegin(), items.rend());
  const Instance permuted(instance.strip_width(), reversed);
  const SolveResponse warm = solver.solve(permuted);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit) << "canonical dedup must fire";
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  // The permuted requester gets starts in ITS item order.
  ASSERT_NO_THROW(validate_packing(permuted, warm.packing));
  EXPECT_EQ(peak_height(permuted, warm.packing), warm.peak);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    EXPECT_EQ(warm.packing.start[i],
              cold.packing.start[instance.size() - 1 - i]);
  }
}

TEST(CachingSolverTest, CacheKeyIsTheCanonicalHashOfTheRequest) {
  // The solver hashes the canonical form in the order canonicalize leaves
  // it.  The key must still be canonical_hash of the request as sent, or
  // stores persisted by earlier builds would warm-load and never hit.
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    CachingSolver solver;
    const std::vector<Item> reversed(golden.instance.items().rbegin(),
                                     golden.instance.items().rend());
    (void)solver.solve(Instance(golden.instance.strip_width(), reversed));
    const std::vector<CacheEntryView> entries =
        solver.cache().export_entries();
    ASSERT_EQ(entries.size(), 1u) << golden.name;
    EXPECT_EQ(entries[0].key.instance_hash, canonical_hash(golden.instance))
        << golden.name;
    EXPECT_EQ(entries[0].key.params_fingerprint,
              params_fingerprint(ServeParams{}))
        << golden.name;
  }
}

TEST(CachingSolverTest, PermutedRequestWithDuplicateItemsStaysValid) {
  // With duplicate (width, height) items the canonical tie-break may hand
  // interchangeable starts to different duplicates across permutations; the
  // served packing must still validate, hit, and carry the same multiset of
  // placed rectangles.
  CachingSolver solver;
  Rng rng(12);
  const Instance instance = gen::random_uniform(18, 32, 12, 8, rng);
  const SolveResponse cold = solver.solve(instance);

  std::vector<Item> shuffled(instance.items().begin(),
                             instance.items().end());
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const Instance permuted(instance.strip_width(), shuffled);
  const SolveResponse warm = solver.solve(permuted);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  ASSERT_NO_THROW(validate_packing(permuted, warm.packing));
  EXPECT_EQ(peak_height(permuted, warm.packing), warm.peak);
  std::vector<std::tuple<Length, Height, Length>> placed_cold, placed_warm;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    placed_cold.emplace_back(instance.item(i).width, instance.item(i).height,
                             cold.packing.start[i]);
    placed_warm.emplace_back(permuted.item(i).width, permuted.item(i).height,
                             warm.packing.start[i]);
  }
  std::sort(placed_cold.begin(), placed_cold.end());
  std::sort(placed_warm.begin(), placed_warm.end());
  EXPECT_EQ(placed_warm, placed_cold);
}

class CachingSolverContract
    : public ::testing::TestWithParam<testing_shapes::ThreadsAndShape> {};

TEST_P(CachingSolverContract, CachedAndEngineDirectAreBitIdentical) {
  // Each cached answer equals solve54 run directly on the request's
  // canonical form, mapped back.
  const auto& [threads, shape] = GetParam();
  const std::vector<Instance> batch =
      testing_shapes::shaped_batch(shape, smart_grid_batch(4, 3));
  CachingSolver cached;
  const std::vector<SolveResponse> warm =
      testing_serve::serve_concurrently(cached, batch, threads);
  ASSERT_EQ(warm.size(), batch.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const CanonicalForm form = canonicalize(batch[i]);
    const approx::Approx54Result direct = approx::solve54(form.instance);
    EXPECT_EQ(warm[i].packing, restore_item_order(form, direct.packing))
        << "request " << i;
    EXPECT_EQ(warm[i].peak, direct.peak) << "request " << i;
    EXPECT_EQ(warm[i].winner, direct.winner) << "request " << i;
    ASSERT_NO_THROW(validate_packing(batch[i], warm[i].packing));
  }
  // 4 distinct requests, 12 total: the cache computed each key once.
  const CacheStats stats = cached.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits + stats.inflight_joins, 8u);
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndShapes, CachingSolverContract,
                         testing_shapes::threads_and_shapes(),
                         testing_shapes::threads_and_shape_name);

TEST(CachingSolverTest, Solve54EngineServesAndDedupes) {
  CachingSolver solver;
  // 2 distinct requests, each asked twice, from 4 callers at once.
  const std::vector<Instance> batch = smart_grid_batch(2, 2);
  const std::vector<SolveResponse> responses =
      testing_serve::serve_concurrently(solver, batch, 4);
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    // Certified witnesses: the winner is the portfolio member's name.
    std::string witness;
    (void)algo::best_of_portfolio(canonicalize(batch[i]).instance, &witness);
    EXPECT_EQ(responses[i].winner, witness);
    ASSERT_NO_THROW(validate_packing(batch[i], responses[i].packing));
    EXPECT_EQ(peak_height(batch[i], responses[i].packing), responses[i].peak);
  }
  EXPECT_EQ(responses[0].packing, responses[2].packing);
  EXPECT_EQ(responses[1].packing, responses[3].packing);
  EXPECT_EQ(solver.stats().misses, 2u);

  // Adversarial row 1 (LB 13): the witness peaks at 21, above
  // floor(3/2 * 13) = 19, so the search runs and its 20 is served.
  const Instance adversarial = theorem5::adversarial_instances().front();
  const SolveResponse served = solver.solve(adversarial);
  EXPECT_EQ(served.peak, 20);
  EXPECT_EQ(algo::best_of_portfolio(canonicalize(adversarial).instance,
                                    combined_lower_bound(adversarial))
                .peak,
            21);
  EXPECT_EQ(served.winner, "pipeline");
  ASSERT_NO_THROW(validate_packing(adversarial, served.packing));
}

TEST(CachingSolverTest, ThrowingRequestRethrowsFromSolveMany) {
  // The middle request is an empty instance, which solve54 refuses:
  // its caller gets the error, and the requests around it are served.
  Rng rng(5);
  CachingSolver solver;
  EXPECT_NO_THROW((void)solver.solve(gen::random_uniform(8, 16, 8, 4, rng)));
  EXPECT_THROW((void)solver.solve(Instance(16, {})), InvalidInput);
  EXPECT_NO_THROW((void)solver.solve(gen::random_uniform(8, 16, 8, 4, rng)));
  EXPECT_EQ(solver.stats().misses, 3u);
  EXPECT_EQ(solver.stats().entries, 2u) << "a failed solve is never cached";
}

TEST(CachingSolverTest, EightThreadHammerComputesEachDistinctKeyOnce) {
  CachingSolver solver;
  // 2 distinct requests, 32 total, from 8 callers that start together.
  const std::vector<Instance> batch = smart_grid_batch(2, 16);
  const std::vector<SolveResponse> responses =
      testing_serve::serve_concurrently(solver, batch, 8);
  ASSERT_EQ(responses.size(), 32u);
  for (std::size_t i = 2; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].packing, responses[i % 2].packing);
  }
  const CacheStats stats = solver.stats();
  EXPECT_EQ(stats.misses, 2u) << "each distinct key must be computed once";
  EXPECT_EQ(stats.hits + stats.inflight_joins, 30u);
}

}  // namespace
}  // namespace dsp::service
