#pragma once

// The metrics registry (DESIGN.md, "Observability"): fixed-bucket log2
// latency histograms and pull sources behind one process-wide export
// surface.
//
// The exposition is the process's single stats surface: the daemon serves
// it over the wire (its `metrics` frame) and every stats reader, in process
// or remote, reads the same samples.  The registry holds two kinds:
//
//  * histograms — 64 log2 bucket atomics plus a sum, exact integer
//    quantiles — are created-or-found by name and live for the process.
//  * sources — pull callbacks that sample an existing stats struct at
//    snapshot time (the Prometheus "collector" idiom).  Every exported
//    counter and gauge comes from one: the stats structs keep their
//    storage and their per-instance semantics, and the registry is how
//    they all reach one exposition.
//
// Naming scheme: dot-separated `<subsystem>.<metric>[_<unit>]`, e.g.
// `cache.hits`, `phase.solve_nanos`.  The Prometheus text exposition
// rewrites dots to underscores under a `dsp_` prefix (`dsp_cache_hits`),
// and exposition_sample() reads a value back out of that text by its
// registry name, so this module alone owns both the format and the rule.
//
// Determinism: nothing here reads a clock (that is obs/trace.cpp's job,
// and the determinism lint pins it there) and nothing here feeds values
// back into solving — histograms are write-only from the solver's point
// of view.  Counts themselves are exact: increments are atomic adds, and
// quantiles are derived with integer arithmetic from the merged buckets,
// so the same samples always produce the same snapshot.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/sync.hpp"

namespace dsp::obs {

/// Histogram buckets.  Bucket 0 holds the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i - 1]; the last bucket is open-ended.  64 buckets cover
/// every uint64 nanosecond value.
inline constexpr std::size_t kHistogramBuckets = 64;

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// Frozen bucket counts of one histogram; all derived statistics (count,
/// sum, quantiles) come from here so they agree with each other.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum = 0;

  /// Upper bound of the bucket holding the q = num/den quantile (the
  /// smallest bucket bound covering at least ceil(q * total) samples);
  /// 0 for an empty histogram.  Integer arithmetic throughout, and
  /// monotone in q by construction.
  [[nodiscard]] std::uint64_t quantile(std::uint64_t num,
                                       std::uint64_t den) const;

  /// Bucket-wise difference vs. an earlier snapshot of the same histogram
  /// (for per-pass deltas).  Counts are monotonic, so this never wraps.
  [[nodiscard]] HistogramSnapshot since(const HistogramSnapshot& base) const;
};

/// Fixed-bucket log2 histogram of uint64 samples (latencies in nanos).
/// record() is two relaxed atomic adds — no locks, no allocation — and
/// snapshot() reads the buckets and the sum directly.
class Histogram {
 public:
  /// Bucket for a value: 0 -> 0, otherwise 1 + floor(log2(v)), clamped.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Largest value the bucket covers (UINT64_MAX for the open last one).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept {
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// One exported scalar sample (from a source).
struct Sample {
  std::string name;
  std::uint64_t value = 0;
  /// Counters are monotonic; gauges are levels.  Only the exposition's
  /// TYPE line cares.
  bool is_gauge = false;
};

/// Everything the registry knows at one instant, names sorted.
struct MetricsSnapshot {
  std::vector<Sample> samples;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// The sample with `name`, or 0 when absent (missing == never touched).
  [[nodiscard]] std::uint64_t sample_value(std::string_view name) const;
};

class Registry {
 public:
  /// The process-wide registry (histograms are process-scoped, exactly
  /// like a Prometheus exposition).
  [[nodiscard]] static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-find by name.  The reference stays valid for the
  /// registry's lifetime (node-stable storage), so hot paths resolve once
  /// and then touch only atomics.
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// RAII registration of a pull source; unregisters on destruction.
  class Source {
   public:
    Source() = default;
    Source(Source&& other) noexcept
        : registry_(other.registry_), token_(other.token_) {
      other.registry_ = nullptr;
    }
    Source& operator=(Source&& other) noexcept {
      if (this != &other) {
        reset();
        registry_ = other.registry_;
        token_ = other.token_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;
    ~Source() { reset(); }

    void reset();

   private:
    friend class Registry;
    Source(Registry* registry, std::uint64_t token)
        : registry_(registry), token_(token) {}
    Registry* registry_ = nullptr;
    std::uint64_t token_ = 0;
  };

  using SourceFn = std::function<void(std::vector<Sample>&)>;

  /// Registers a pull callback sampled at snapshot time.  The callback
  /// runs under the registry lock: it must not touch the registry itself.
  /// When two live sources emit the same name, the later registration
  /// wins (a restarted daemon re-registering its counters replaces the
  /// drained one's).
  [[nodiscard]] Source register_source(SourceFn fn);

  /// Every source's samples plus every histogram, names sorted; for
  /// duplicate sample names the latest registration wins.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition of snapshot(): `dsp_`-prefixed
  /// underscore names, `# TYPE` lines, histograms as cumulative
  /// `_bucket{le=...}` series with `_sum`/`_count`.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  friend class Source;
  void unregister_source(std::uint64_t token);

  struct SourceEntry {
    std::uint64_t token = 0;
    SourceFn fn;
  };

  mutable runtime::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DSP_GUARDED_BY(mutex_);
  std::vector<SourceEntry> sources_ DSP_GUARDED_BY(mutex_);
  std::uint64_t next_token_ DSP_GUARDED_BY(mutex_) = 1;
};

/// Reads one scalar sample out of a prometheus_text() exposition.  `name`
/// is the registry name (`cache.hits`), mapped with the exposition's own
/// `dsp_`/underscore rule; histogram series are addressed by suffix
/// (`phase.request_nanos_count`).  Returns the value of the first line
/// `<mapped-name> <value>`, or nullopt when no line carries the sample.
/// The text may come off a socket: a matching line whose value is not a
/// full-string u64 (or that has no value at all) throws InvalidInput.
[[nodiscard]] std::optional<std::uint64_t> exposition_sample(
    std::string_view text, std::string_view name);

}  // namespace dsp::obs
