#include "service/cache.hpp"

#include <utility>

#include "approx/solve54.hpp"
#include "obs/trace.hpp"
#include "runtime/sync.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {

namespace {

/// Fixed per-entry overhead charged on top of the variable payload: the
/// node, map slot and control block are real memory even for a tiny packing.
constexpr std::size_t kEntryOverhead = 128;

[[nodiscard]] std::size_t entry_bytes(const CachedSolve& value) {
  return kEntryOverhead + value.packing.start.size() * sizeof(Length) +
         value.winner.size();
}

}  // namespace

std::uint64_t params_fingerprint(const ServeParams& /*params*/) {
  ContentHasher hasher;
  // Domain salt + fingerprint version: bump if the absorbed field set or
  // the served pipeline ever changes, so keys in a persisted store
  // (service/persist.hpp) written under the old set cannot alias.  No
  // field is absorbed: every request is served by solve54 with its
  // default epsilon.
  hasher.absorb(0x6473702d73727634ull);  // "dsp-srv4"
  return hasher.digest64();
}

// ---------------------------------------------------------------------------
// SolveCache.
// ---------------------------------------------------------------------------

std::size_t SolveCache::KeyHash::operator()(const CacheKey& key) const {
  return static_cast<std::size_t>(Rng::mix_seed(
      key.instance_hash.hi ^
      Rng::mix_seed(key.instance_hash.lo ^
                    Rng::mix_seed(key.params_fingerprint))));
}

SolveCache::SolveCache(const CacheOptions& options)
    : capacity_bytes_(options.capacity_bytes) {
  DSP_REQUIRE(capacity_bytes_ > 0,
              "SolveCache: capacity_bytes must be positive (a zero-byte "
              "cache would reject every insert)");
}

bool SolveCache::insert_locked(const CacheKey& key,
                               std::shared_ptr<const CachedSolve> value) {
  // A value bigger than the whole budget is uncacheable: it is checked
  // before anything moves, so it never evicts resident entries.
  const std::size_t value_bytes = entry_bytes(*value);
  if (value_bytes > capacity_bytes_) {
    ++stats_.oversized;
    return false;
  }
  if (const auto it = resident_.find(key); it != resident_.end()) {
    // Replace in place (warm-load replay over a snapshot entry).
    stats_.bytes -= it->second->bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    lru_.front().value = std::move(value);
    lru_.front().bytes = value_bytes;
  } else {
    lru_.push_front(Entry{key, std::move(value), value_bytes});
    resident_.emplace(key, lru_.begin());
  }
  stats_.bytes += value_bytes;
  // Evict cold entries past the budget.  The new entry is at the front
  // and fits on its own, so it is never its own victim.
  while (stats_.bytes > capacity_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    resident_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

SolveCache::Lookup SolveCache::get_or_compute(
    const CacheKey& key, const std::function<CachedSolve()>& compute) {
  std::promise<std::shared_ptr<const CachedSolve>> promise;
  Future pending;
  bool join = false;
  {
    // The locked probe is its own phase; the single-flight wait below gets
    // a separate span so a trace distinguishes lock contention from
    // riding on another thread's solve.
    const obs::ScopedSpan lookup_span(obs::Phase::kCacheLookup);
    runtime::MutexLock lock(mutex_);
    if (const auto it = resident_.find(key); it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return Lookup{it->second->value, CacheOutcome::kHit};
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      ++stats_.inflight_joins;
      // Copy the shared future, then wait outside the lock: the computing
      // thread needs the lock to publish, and other keys must not stall
      // behind our wait.
      pending = it->second;
      join = true;
      lock.unlock();
    } else {
      ++stats_.misses;
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (join) {
    const obs::ScopedSpan join_span(obs::Phase::kInflightJoin);
    return Lookup{pending.get(), CacheOutcome::kJoined};
  }

  // The single flight: exactly one thread per key reaches this point.
  // `compute` runs outside every lock, so other keys stay servable.
  std::shared_ptr<const CachedSolve> value;
  try {
    value = std::make_shared<const CachedSolve>(compute());
  } catch (...) {
    {
      const runtime::MutexLock lock(mutex_);
      inflight_.erase(key);
    }
    // Joiners that already hold the future get the same exception; the next
    // fresh request recomputes (errors are never cached).
    promise.set_exception(std::current_exception());
    throw;
  }

  bool inserted = false;
  {
    const runtime::MutexLock lock(mutex_);
    inflight_.erase(key);
    inserted = insert_locked(key, value);
  }
  promise.set_value(value);
  if (inserted && insert_observer_) insert_observer_(key, value);
  return Lookup{std::move(value), CacheOutcome::kMiss};
}

void SolveCache::insert(const CacheKey& key, CachedSolve value) {
  auto shared = std::make_shared<const CachedSolve>(std::move(value));
  const runtime::MutexLock lock(mutex_);
  (void)insert_locked(key, std::move(shared));
}

std::vector<CacheEntryView> SolveCache::export_entries() const {
  std::vector<CacheEntryView> entries;
  const runtime::MutexLock lock(mutex_);
  entries.reserve(lru_.size());
  // Cold to warm: replaying the export through insert() reproduces the
  // recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    entries.push_back(CacheEntryView{it->key, it->value});
  }
  return entries;
}

void SolveCache::set_insert_observer(InsertObserver observer) {
  insert_observer_ = std::move(observer);
}

CacheStats SolveCache::stats() const {
  const runtime::MutexLock lock(mutex_);
  CacheStats stats = stats_;
  stats.entries = resident_.size();
  return stats;
}

void SolveCache::clear() {
  const runtime::MutexLock lock(mutex_);
  lru_.clear();
  resident_.clear();
  stats_.bytes = 0;
}

// ---------------------------------------------------------------------------
// CachingSolver.
// ---------------------------------------------------------------------------

CachingSolver::CachingSolver(const ServeParams& params,
                             const CacheOptions& cache_options)
    : fingerprint_(params_fingerprint(params)),
      cache_(cache_options) {
  // Pull-source: serving-layer counters materialize in the registry on
  // demand (metrics frame, --metrics-out) instead of being double-counted
  // into push-style instruments.  Registration order means a newer solver
  // in the same process shadows an older one's samples, which matches the
  // "latest solver owns the serving stack" semantics of the daemon.
  obs_source_ = obs::Registry::global().register_source(
      [this](std::vector<obs::Sample>& out) {
        out.push_back({"cache.capacity_bytes", cache_.capacity_bytes(), true});
        const CacheStats cache = cache_.stats();
        out.push_back({"cache.hits", cache.hits, false});
        out.push_back({"cache.misses", cache.misses, false});
        out.push_back({"cache.inflight_joins", cache.inflight_joins, false});
        out.push_back({"cache.evictions", cache.evictions, false});
        out.push_back({"cache.oversized", cache.oversized, false});
        out.push_back({"cache.entries", cache.entries, true});
        out.push_back({"cache.bytes", cache.bytes, true});
      });
}

SolveResponse CachingSolver::solve(const Instance& instance) {
  // Adopt the caller's request id (the daemon opens one per frame) or mint
  // a fresh one for direct callers; the whole serve is one kSolve span.
  const obs::RequestScope request_scope;
  const obs::ScopedSpan solve_span(obs::Phase::kSolve);
  const CanonicalForm form = canonicalize(instance);
  const CacheKey key{canonical_hash(form), fingerprint_};
  const SolveCache::Lookup lookup = cache_.get_or_compute(key, [&]() {
    approx::Approx54Result result = approx::solve54(form.instance);
    return CachedSolve{std::move(result.packing), result.peak,
                       std::move(result.winner)};
  });
  SolveResponse response;
  response.packing = restore_item_order(form, lookup.value->packing);
  response.peak = lookup.value->peak;
  response.winner = lookup.value->winner;
  response.outcome = lookup.outcome;
  return response;
}

}  // namespace dsp::service
