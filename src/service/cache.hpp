#pragma once

// The single-flight LRU solve cache and the CachingSolver front door
// (DESIGN.md, "The serving layer").
//
// Serving workloads are dominated by repeats and near-repeats of the same
// request (the same smart-grid day, the same cluster shape).  The cache
// keys on (canonical content hash, solver-params fingerprint), so
// semantically identical requests — any item order, any ids/labels — hit
// the same entry:
//
//  * one LRU behind one mutex — the lock covers a map probe and a list
//    splice, a sliver of a request that canonicalizes and copies a
//    packing, so two serving threads rarely meet on it.
//  * single-flight — concurrent misses for the same key block on the one
//    in-flight computation instead of duplicating it; joiners see the same
//    shared result (or the same exception) the computing thread produced.
//  * LRU by bytes — entries are charged by packing size and evicted from
//    the cold end once `capacity_bytes` overflows.
//
// Determinism: CachingSolver always solves the *canonical form* and maps
// starts back through the request's permutation, so its answer is a pure
// function of (canonical instance, result-affecting params) — identical
// whether it came from a cold solve, a cache hit, or an in-flight join, for
// any number of concurrent callers (the argument lives in DESIGN.md).

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"
#include "obs/metrics.hpp"
#include "runtime/sync.hpp"
#include "service/canonical.hpp"

namespace dsp::service {

// ---------------------------------------------------------------------------
// Keys and fingerprints.
// ---------------------------------------------------------------------------

/// Pipeline a request is served with.
enum class ServeEngine {
  kPortfolio,  ///< algo::best_of_portfolio over the canonical instance
  kSolve54,    ///< approx::solve54 over the canonical instance
};

[[nodiscard]] std::string_view to_string(ServeEngine engine);

/// Everything that shapes a served solve, all of it result-affecting and
/// fingerprinted into the cache key.  There is no profile knob: every
/// solve places on the one run-length Profile.
struct ServeParams {
  ServeEngine engine = ServeEngine::kPortfolio;
};

/// 64-bit fingerprint of the result-affecting parameters.  Distinct
/// parameter sets must never collide in practice; execution settings that
/// live elsewhere (the cache budget, the obs switches) are never absorbed,
/// so they never fragment the cache.
[[nodiscard]] std::uint64_t params_fingerprint(const ServeParams& params);

struct CacheKey {
  Hash128 instance_hash;
  std::uint64_t params_fingerprint = 0;

  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

// ---------------------------------------------------------------------------
// The single-flight LRU.
// ---------------------------------------------------------------------------

/// A cached answer, always in canonical item order (the cache never sees a
/// requester's permutation).
struct CachedSolve {
  Packing packing;  ///< starts for the canonical instance
  Height peak = 0;
  std::string winner;
};

struct CacheOptions {
  /// Value-byte budget (the sum of per-entry packing and winner payloads
  /// plus a fixed per-entry overhead).  Must be positive: a zero-byte cache
  /// would silently reject every insert, so the constructor throws
  /// InvalidInput.  An entry larger than the whole budget is never inserted
  /// (counted as CacheStats::oversized) and leaves resident entries
  /// untouched.
  std::size_t capacity_bytes = 64ull << 20;
};

/// How a lookup was satisfied.
enum class CacheOutcome {
  kMiss,    ///< this thread computed and inserted the value
  kHit,     ///< served from the LRU
  kJoined,  ///< waited on another thread's in-flight computation
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inflight_joins = 0;
  std::uint64_t evictions = 0;
  /// Values larger than the whole budget: never inserted (and
  /// never allowed to evict resident entries on the way out).
  std::uint64_t oversized = 0;
  std::uint64_t entries = 0;  ///< currently resident
  std::uint64_t bytes = 0;    ///< currently charged
};

/// One resident entry, as exported for persistence (persist.hpp).  The
/// value pointer aliases the live cache entry — treat it as a snapshot.
struct CacheEntryView {
  CacheKey key;
  std::shared_ptr<const CachedSolve> value;
};

class SolveCache {
 public:
  /// Called after every get_or_compute insert, outside the cache lock —
  /// the persistence layer's append hook.  Warm-load inserts (insert())
  /// are deliberately NOT observed, or log replay would re-append itself.
  using InsertObserver = std::function<void(
      const CacheKey&, const std::shared_ptr<const CachedSolve>&)>;

  /// Throws InvalidInput on a zero-byte capacity budget.
  explicit SolveCache(const CacheOptions& options = {});

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  struct Lookup {
    std::shared_ptr<const CachedSolve> value;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  /// The single-flight lookup: returns the cached value, or joins the
  /// in-flight computation for `key`, or runs `compute` exactly once and
  /// caches its result.  `compute` runs outside every cache lock, so a
  /// solve never blocks lookups of other keys.  If `compute` throws, the error
  /// propagates to the computing caller and to every joiner; nothing is
  /// cached (the next request recomputes).
  [[nodiscard]] Lookup get_or_compute(
      const CacheKey& key, const std::function<CachedSolve()>& compute);

  /// Direct insert for warm loads (persistence replay): makes `key`
  /// resident and most-recently-used, replacing any previous value.  Does
  /// not touch the hit/miss counters and does not notify the insert
  /// observer.  Oversized values count as CacheStats::oversized and are
  /// not inserted, exactly like the get_or_compute path.
  void insert(const CacheKey& key, CachedSolve value);

  /// Every resident entry, cold to warm — re-`insert`ing the result in
  /// order reproduces the recency order.  Taken under the cache lock, so
  /// it is one consistent snapshot.
  [[nodiscard]] std::vector<CacheEntryView> export_entries() const;

  /// Installs the persistence append hook.  Must be installed before the
  /// cache is shared across threads (the daemon wires it at boot, before
  /// serving): the observer slot itself is unsynchronized.
  void set_insert_observer(InsertObserver observer);

  /// Counters and residency, read under the cache lock.
  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  /// Drops every resident entry (in-flight computations are unaffected).
  void clear();

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CachedSolve> value;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };
  using Future = std::shared_future<std::shared_ptr<const CachedSolve>>;

  /// Makes `key` the most-recent entry with `value` and evicts cold entries
  /// past the budget.  A value larger than the whole budget is counted as
  /// oversized and not inserted.  Returns whether the value is resident.
  bool insert_locked(const CacheKey& key,
                     std::shared_ptr<const CachedSolve> value)
      DSP_REQUIRES(mutex_);

  /// Immutable after construction, hence unguarded.
  const std::size_t capacity_bytes_;
  mutable runtime::Mutex mutex_;
  /// Front = most recently used; eviction pops the back.
  std::list<Entry> lru_ DSP_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> resident_
      DSP_GUARDED_BY(mutex_);
  /// Keys currently being computed; joiners wait on the shared future.
  std::unordered_map<CacheKey, Future, KeyHash> inflight_
      DSP_GUARDED_BY(mutex_);
  /// Counters and charged bytes; `entries` is read off resident_ instead.
  CacheStats stats_ DSP_GUARDED_BY(mutex_);
  InsertObserver insert_observer_;
};

// ---------------------------------------------------------------------------
// The caching solver: canonicalize -> cache -> solve -> restore order.
// ---------------------------------------------------------------------------

/// One served answer, in the requester's item order.  The payload
/// (packing, peak, winner) is a pure function of (canonical instance,
/// fingerprinted params); `outcome` records how the cache satisfied this
/// particular request and is scheduling-dependent for concurrent
/// duplicates (miss vs. hit vs. join), so equality comparisons that only
/// care about the answer should compare the payload fields.
struct SolveResponse {
  Packing packing;
  Height peak = 0;
  std::string winner;
  CacheOutcome outcome = CacheOutcome::kMiss;

  [[nodiscard]] bool operator==(const SolveResponse&) const = default;
};

/// The serving front door: every request is canonicalized, deduplicated
/// through the SolveCache, solved with the configured pipeline, and
/// answered in the requester's item order.  Thread-safe: solve may be
/// called concurrently (the daemon serves each connection on its own
/// thread), and concurrent duplicates collapse onto one computation via
/// single flight, which is visible only in the `outcome` fields.
class CachingSolver {
 public:
  explicit CachingSolver(const ServeParams& params = {},
                         const CacheOptions& cache_options = {});

  /// Serves one request on the calling thread.
  [[nodiscard]] SolveResponse solve(const Instance& instance);

  [[nodiscard]] const ServeParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] CacheStats stats() const { return cache_.stats(); }
  /// The underlying cache, for persistence (warm load, export, the insert
  /// observer).  Entries are keyed by this solver's fingerprint.
  [[nodiscard]] SolveCache& cache() { return cache_; }

 private:
  ServeParams params_;
  std::uint64_t fingerprint_;
  SolveCache cache_;
  /// Registry pull-source exporting serve.engine and the cache.* samples.
  /// Declared last: it captures `this`, so it must unregister (its
  /// destructor) before any member it reads is torn down.
  obs::Registry::Source obs_source_;
};

}  // namespace dsp::service
