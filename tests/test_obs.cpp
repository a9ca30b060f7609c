// The observability layer (DESIGN.md, "Observability"): histogram edge
// cases and exact concurrent merges, registry snapshot/exposition and
// pull-source semantics, reading the exposition back (and what a live
// daemon's exposition carries), the tracer's ring buffer and Chrome trace
// JSON, and — the contract everything else rides on — packings
// bit-identical with tracing on vs. off across {1,2,8} callers and both
// strip shapes (narrow and wide, tests/strip_shapes.hpp), with the obs
// switches provably outside the cache fingerprint.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "approx/solve54.hpp"
#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/daemon.hpp"
#include "service/frame_codec.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "cache_outcome_print.hpp"
#include "concurrent_serve.hpp"
#include "strip_shapes.hpp"
#include "theorem5_corpus.hpp"

namespace dsp::obs {
namespace {

/// Restores the global metrics/tracing switches on scope exit, so a test
/// that flips them cannot leak state into its neighbours.
class SwitchGuard {
 public:
  SwitchGuard() : metrics_(metrics_enabled()), tracing_(tracing_enabled()) {}
  ~SwitchGuard() {
    set_metrics_enabled(metrics_);
    set_tracing_enabled(tracing_);
  }

 private:
  bool metrics_;
  bool tracing_;
};

// ---------------------------------------------------------------------------
// Histogram buckets and quantiles.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  // Every power of two opens a new bucket; its predecessor closes one.
  for (std::size_t k = 1; k < 63; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_index(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Histogram::bucket_index(pow - 1), k) << "2^" << k << " - 1";
  }
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketUpperCoversItsIndex) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{1000}, std::uint64_t{1} << 40}) {
    EXPECT_GE(Histogram::bucket_upper(Histogram::bucket_index(v)), v);
  }
  EXPECT_EQ(Histogram::bucket_upper(kHistogramBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  const Histogram hist;
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.quantile(50, 100), 0u);
  EXPECT_EQ(snap.quantile(99, 100), 0u);
}

TEST(HistogramTest, SingleSampleOwnsEveryQuantile) {
  Histogram hist;
  hist.record(1000);  // bucket [512, 1023]
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.sum, 1000u);
  const std::uint64_t upper =
      Histogram::bucket_upper(Histogram::bucket_index(1000));
  EXPECT_EQ(snap.quantile(1, 100), upper);
  EXPECT_EQ(snap.quantile(50, 100), upper);
  EXPECT_EQ(snap.quantile(99, 100), upper);
  EXPECT_EQ(snap.quantile(100, 100), upper);
}

TEST(HistogramTest, QuantilesAreMonotoneInQ) {
  Histogram hist;
  Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    hist.record(static_cast<std::uint64_t>(rng.uniform(0, 1 << 20)));
  }
  const HistogramSnapshot snap = hist.snapshot();
  std::uint64_t prev = 0;
  for (std::uint64_t q = 1; q <= 100; ++q) {
    const std::uint64_t value = snap.quantile(q, 100);
    EXPECT_GE(value, prev) << "quantile not monotone at q=" << q;
    prev = value;
  }
}

TEST(HistogramTest, QuantileSplitsAtBucketBoundary) {
  Histogram hist;
  // Two buckets: 10 samples of value 1 (bucket 1, upper 1), 10 of value 4
  // (bucket 3, upper 7).  p50 must come from the first, p51 the second.
  for (int i = 0; i < 10; ++i) hist.record(1);
  for (int i = 0; i < 10; ++i) hist.record(4);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 20u);
  EXPECT_EQ(snap.quantile(50, 100), 1u);
  EXPECT_EQ(snap.quantile(51, 100), 7u);
  EXPECT_EQ(snap.quantile(100, 100), 7u);
}

TEST(HistogramTest, ConcurrentIncrementsMergeExactly) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<std::uint64_t>(t + 1) * kPerThread;
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(HistogramTest, SinceComputesBucketwiseDelta) {
  Histogram hist;
  hist.record(3);
  hist.record(100);
  const HistogramSnapshot before = hist.snapshot();
  hist.record(3);
  hist.record(5000);
  const HistogramSnapshot delta = hist.snapshot().since(before);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.sum, 5003u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(3)], 1u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(5000)], 1u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(100)], 0u);
}

// ---------------------------------------------------------------------------
// Registry: histograms, sources, exposition.
// ---------------------------------------------------------------------------

TEST(RegistryTest, SourceSamplesAppearAndVanishWithRegistration) {
  Registry registry;
  {
    const Registry::Source source =
        registry.register_source([](std::vector<Sample>& out) {
          out.push_back({"src.live", 7, false});
        });
    EXPECT_EQ(registry.snapshot().sample_value("src.live"), 7u);
  }
  // Unregistered on destruction: the sample is gone, not stale.
  EXPECT_EQ(registry.snapshot().sample_value("src.live"), 0u);
}

TEST(RegistryTest, LaterSourceWinsDuplicateNames) {
  Registry registry;
  const Registry::Source old_daemon =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"daemon.requests.test", 1, false});
      });
  const Registry::Source new_daemon =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"daemon.requests.test", 2, false});
      });
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sample_value("daemon.requests.test"), 2u);
  // Deduplicated, not just shadowed: one sample under the name.
  std::size_t occurrences = 0;
  for (const Sample& sample : snap.samples) {
    if (sample.name == "daemon.requests.test") ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(RegistryTest, PrometheusTextCarriesEveryInstrument) {
  Registry registry;
  const Registry::Source source =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"cache.hits.test", 42, false});
        out.push_back({"cache.entries.test", 9, true});
      });
  registry.histogram("phase.solve_nanos.test").record(1000);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE dsp_cache_hits_test counter"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_cache_hits_test 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsp_cache_entries_test gauge"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_cache_entries_test 9"), std::string::npos);
  EXPECT_NE(text.find("dsp_phase_solve_nanos_test_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_phase_solve_nanos_test_sum 1000"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer: spans, ring overflow, Chrome JSON.
// ---------------------------------------------------------------------------

TEST(TracerTest, AppendsAreCountedAndCleared) {
  Tracer tracer;
  tracer.append(Phase::kSolve, 100, 50, 1);
  tracer.append(Phase::kAttempt, 120, 10, 1);
  EXPECT_EQ(tracer.spans_recorded(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  Tracer tracer;
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
    tracer.append(Phase::kAttempt, i, 1, 0);
  }
  EXPECT_EQ(tracer.spans_recorded(), Tracer::kRingCapacity + extra);
  EXPECT_EQ(tracer.spans_dropped(), extra);
  // The retained window is the newest kRingCapacity spans: the trace's
  // earliest timestamp is exactly `extra` (spans 0..extra-1 overwritten).
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  std::size_t events = 0;
  for (std::size_t at = trace.find("\"ph\":\"X\""); at != std::string::npos;
       at = trace.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, Tracer::kRingCapacity);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer;
  tracer.append(Phase::kRequest, 1000, 4500, 7);
  tracer.append(Phase::kSolve, 1500, 2250, 7);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  // Structural checks; the CI smoke step additionally json.loads a real
  // trace (tools/check_trace.py).
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"request_id\":7}"), std::string::npos);
  // Timestamps are rebased to the earliest span and written as exact
  // fixed-point micros: 1500-1000 nanos -> ts 0.500, dur 2250 -> 2.250.
  EXPECT_NE(trace.find("\"ts\":0.500"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":2.250"), std::string::npos);
  EXPECT_EQ(trace.find("e+"), std::string::npos)
      << "scientific notation leaked into the trace";
  EXPECT_EQ(trace.find("e-"), std::string::npos);
  // Balanced braces/brackets (no nesting surprises in a flat event list).
  int depth = 0;
  for (const char c : trace) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TracerTest, EmptyTraceIsStillADocument) {
  const Tracer tracer;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

// ---------------------------------------------------------------------------
// ScopedSpan / RequestScope.
// ---------------------------------------------------------------------------

TEST(ScopedSpanTest, AccumulatesOnlyWhenSomeSwitchIsOn) {
  const SwitchGuard guard;
  std::uint64_t nanos = 0;
  set_metrics_enabled(true);
  set_tracing_enabled(false);
  {
    const ScopedSpan span(Phase::kWitness, &nanos);
    // Make the span long enough that even a coarse clock ticks.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(nanos, 0u);

  std::uint64_t disabled_nanos = 0;
  set_metrics_enabled(false);
  const HistogramSnapshot before =
      phase_histogram(Phase::kWitness).snapshot();
  {
    const ScopedSpan span(Phase::kWitness, &disabled_nanos);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(disabled_nanos, 0u) << "disabled span must not read the clock";
  EXPECT_EQ(phase_histogram(Phase::kWitness).snapshot().since(before).total,
            0u);
}

TEST(ScopedSpanTest, SpanFeedsPhaseHistogram) {
  const SwitchGuard guard;
  set_metrics_enabled(true);
  const HistogramSnapshot before =
      phase_histogram(Phase::kPricingRound).snapshot();
  { const ScopedSpan span(Phase::kPricingRound); }
  { const ScopedSpan span(Phase::kPricingRound); }
  EXPECT_EQ(
      phase_histogram(Phase::kPricingRound).snapshot().since(before).total,
      2u);
}

TEST(RequestScopeTest, NestedScopesAdoptTheOuterId) {
  EXPECT_EQ(current_request_id(), 0u);
  std::uint64_t outer_id = 0;
  {
    const RequestScope outer;
    outer_id = outer.id();
    EXPECT_GT(outer_id, 0u);
    EXPECT_EQ(current_request_id(), outer_id);
    {
      const RequestScope inner;
      EXPECT_EQ(inner.id(), outer_id) << "inner scope must adopt, not mint";
      EXPECT_EQ(current_request_id(), outer_id);
    }
    EXPECT_EQ(current_request_id(), outer_id)
        << "inner scope must not unbind the outer id";
  }
  EXPECT_EQ(current_request_id(), 0u);
  const RequestScope next;
  EXPECT_GT(next.id(), outer_id) << "fresh scopes mint fresh ids";
}

TEST(RequestScopeTest, Solve54SpansAllCarryTheRequestId) {
  // solve54 runs on its caller's thread, so every span it records — the
  // witness portfolio and the lower bound included — joins the request.
  const SwitchGuard guard;
  set_tracing_enabled(true);
  Tracer::global().clear();
  // Adversarial row 1: its witness is not certified, so attempts run.
  const Instance instance = theorem5::adversarial_instances().front();
  std::uint64_t request_id = 0;
  {
    const RequestScope scope;
    request_id = scope.id();
    (void)approx::solve54(instance);
  }
  set_tracing_enabled(false);
  std::ostringstream os;
  Tracer::global().write_chrome_trace(os);
  Tracer::global().clear();

  const std::string id_field =
      "\"args\":{\"request_id\":" + std::to_string(request_id) + "}";
  std::vector<std::string> names;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find("\"name\":\"");
    if (at == std::string::npos) continue;
    const std::size_t begin = at + 8;
    const std::string name = line.substr(begin, line.find('"', begin) - begin);
    EXPECT_NE(line.find(id_field), std::string::npos)
        << "span " << name << " is not attributed to request " << request_id
        << ": " << line;
    names.push_back(name);
  }
  for (const char* phase : {"witness", "lower_bound", "attempt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "no " << phase << " span recorded";
  }
}

/// Runs solve54 on a fresh thread with tracing on and returns the thread
/// id of every span it recorded.
std::vector<std::string> solve54_span_tids(const Instance& instance) {
  const SwitchGuard guard;
  set_tracing_enabled(true);
  Tracer::global().clear();
  std::thread caller([&instance] { (void)approx::solve54(instance); });
  caller.join();
  set_tracing_enabled(false);
  std::ostringstream os;
  Tracer::global().write_chrome_trace(os);
  Tracer::global().clear();

  std::vector<std::string> tids;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find("\"tid\":");
    if (at == std::string::npos) continue;
    const std::size_t begin = at + 6;
    tids.push_back(line.substr(begin, line.find(',', begin) - begin));
  }
  return tids;
}

/// Every span of a solve54 call landed in its caller's ring: a single tid,
/// so no work ran on another thread.
void expect_one_thread(const Instance& instance) {
  const std::vector<std::string> tids = solve54_span_tids(instance);
  ASSERT_FALSE(tids.empty()) << "solve54 recorded no spans";
  for (const std::string& tid : tids) {
    EXPECT_EQ(tid, tids.front()) << instance.summary();
  }
}

TEST(TracerTest, Solve54SpansStayOnTheCallingThread) {
  Rng rng(504);
  expect_one_thread(gen::random_uniform(30, 48, 20, 10, rng));
}

TEST(Solve54Sequential, SubmitsNoPoolTasksOnGoldenFamilies) {
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    SCOPED_TRACE(golden.name);
    expect_one_thread(golden.instance);
  }
}

TEST(Solve54Sequential, LpEnginesAndBackendsSubmitNoPoolTasks) {
  // Narrow items on a wide strip populate the Lemma-10 LP (column
  // generation), whose pricing also stays on the caller's thread.
  Rng rng(909);
  expect_one_thread(gen::random_uniform(48, 240, 4, 24, rng));
  expect_one_thread(gen::random_uniform(12, 240, 4, 24, rng));
}

TEST(RegistryTest, CachingSolverExportsSchedulerButNoTunerSamples) {
  service::CachingSolver solver;
  Rng rng(505);
  (void)solver.solve(gen::random_uniform(16, 32, 12, 8, rng));
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.sample_value("cache.misses"), 1u);
  for (const Sample& sample : snap.samples) {
    EXPECT_EQ(sample.name.find("tuner"), std::string::npos) << sample.name;
  }
  EXPECT_EQ(Registry::global().prometheus_text().find("tuner"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Reading the exposition back (exposition_sample), and what a daemon's
// exposition carries.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

TEST(ExpositionReaderTest, RoundTripsEveryScalarSample) {
  Registry registry;
  registry.histogram("reader.latency_nanos").record(1000);
  const Registry::Source source =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"reader.requests", 29, false});
        out.push_back({"reader.untouched", 0, false});  // exported as 0
        out.push_back({"reader.level", 7, true});
        out.push_back({"reader.max", kMaxU64, false});
        out.push_back({"reader-dash.level", 3, true});  // '-' maps to '_'
      });
  const std::string text = registry.prometheus_text();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 5u);
  for (const Sample& sample : snap.samples) {
    EXPECT_EQ(exposition_sample(text, sample.name), sample.value)
        << sample.name;
  }
  // Histogram series are addressed by their suffixed names.
  EXPECT_EQ(exposition_sample(text, "reader.latency_nanos_count"), 1u);
  EXPECT_EQ(exposition_sample(text, "reader.latency_nanos_sum"), 1000u);
}

TEST(ExpositionReaderTest, AbsentNameIsNullopt) {
  const std::string text =
      "# TYPE dsp_cache_hits counter\n"
      "dsp_cache_hits 18\n"
      "dsp_phase_solve_nanos_bucket{le=\"+Inf\"} 3\n"
      "dsp_phase_solve_nanos_sum 9\n";
  EXPECT_EQ(exposition_sample(text, "cache.hits"), 18u);
  EXPECT_EQ(exposition_sample(text, "cache.misses"), std::nullopt);
  EXPECT_EQ(exposition_sample("", "cache.hits"), std::nullopt);
  // A name that is only a prefix of a longer series does not match it.
  EXPECT_EQ(exposition_sample(text, "cache"), std::nullopt);
  EXPECT_EQ(exposition_sample(text, "phase.solve_nanos"), std::nullopt);
}

TEST(ExpositionReaderTest, MalformedValueThrows) {
  const auto read_x = [](const std::string& line) {
    return exposition_sample("dsp_y 1\n" + line + "\n", "x");
  };
  EXPECT_THROW((void)read_x("dsp_x 12a"), InvalidInput);
  EXPECT_THROW((void)read_x("dsp_x -1"), InvalidInput);
  EXPECT_THROW((void)read_x("dsp_x +1"), InvalidInput);
  EXPECT_THROW((void)read_x("dsp_x 18446744073709551616"), InvalidInput);
  EXPECT_THROW((void)read_x("dsp_x "), InvalidInput);
  EXPECT_THROW((void)read_x("dsp_x"), InvalidInput);  // no space, no value
  // The largest u64 parses, with or without a trailing newline.
  EXPECT_EQ(read_x("dsp_x 18446744073709551615"), kMaxU64);
  EXPECT_EQ(exposition_sample("dsp_x 18446744073709551615", "x"), kMaxU64);
}

TEST(ExpositionReaderTest, LiveDaemonExportsEveryRetiredStatsField) {
  // The daemon's retired stats_ok frame (v3) carried the fields below; each
  // now lives in the exposition as the sample named next to it.
  const SwitchGuard guard;
  set_metrics_enabled(true);
  const std::string state_dir =
      (std::filesystem::temp_directory_path() /
       ("dsp_test_obs_mapping_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state_dir);
  service::DaemonOptions options;
  options.cache.capacity_bytes = 4 << 20;
  options.persist_dir = state_dir;
  std::string text;
  {
    service::Daemon daemon(options);
    daemon.start();
    service::DaemonClient client(daemon.port());
    Rng rng(506);
    const service::WireInstance wire = service::WireInstance::from_instance(
        gen::smart_grid(12, 48, rng), "mapping");
    (void)client.solve(wire);
    (void)client.solve(wire);
    text = client.metrics();
    daemon.stop();
  }
  std::filesystem::remove_all(state_dir);

  struct Field {
    const char* v3_field;
    const char* sample;
  };
  constexpr Field kMapping[] = {
      {"capacity_bytes", "cache.capacity_bytes"},
      {"cache.hits", "cache.hits"},
      {"cache.misses", "cache.misses"},
      {"cache.inflight_joins", "cache.inflight_joins"},
      {"cache.evictions", "cache.evictions"},
      {"cache.oversized", "cache.oversized"},
      {"cache.entries", "cache.entries"},
      {"cache.bytes", "cache.bytes"},
      {"daemon.accepted", "daemon.accepted"},
      {"daemon.requests", "daemon.requests"},
      {"daemon.served", "daemon.served"},
      {"daemon.shed", "daemon.shed"},
      {"daemon.errors", "daemon.errors"},
      {"daemon.warm_loaded", "daemon.warm_loaded"},
      {"daemon.draining", "daemon.draining"},
      {"persisted_appends", "persist.appends"},
      {"compactions", "persist.compactions"},
      {"obs.request_count", "phase.request_nanos_count"},
      {"obs.spans_recorded", "trace.spans_recorded"},
      {"obs.spans_dropped", "trace.spans_dropped"},
      {"obs.tracing_enabled", "trace.enabled"},
  };
  for (const Field& field : kMapping) {
    EXPECT_TRUE(exposition_sample(text, field.sample).has_value())
        << field.v3_field << " -> " << field.sample;
  }
  // obs.request_p50/p95/p99_nanos were bucket-upper quantiles of the
  // phase.request_nanos histogram: the bucket holding each one is
  // populated, so its cumulative `le` series is in the text.
  const HistogramSnapshot request = phase_histogram(Phase::kRequest).snapshot();
  for (const std::uint64_t q : {50u, 95u, 99u}) {
    const std::string le = std::to_string(request.quantile(q, 100));
    EXPECT_NE(text.find("dsp_phase_request_nanos_bucket{le=\"" + le + "\"}"),
              std::string::npos)
        << "p" << q;
  }

  // The values, not just their presence (this test's daemon owns the only
  // CachingSolver, so the cache.* samples are its own).
  EXPECT_EQ(exposition_sample(text, "cache.capacity_bytes"), 4u << 20);
  EXPECT_EQ(exposition_sample(text, "cache.misses"), 1u);
  EXPECT_EQ(exposition_sample(text, "cache.hits"), 1u);
  EXPECT_EQ(exposition_sample(text, "daemon.served"), 2u);
  EXPECT_EQ(exposition_sample(text, "daemon.requests"), 3u);  // + metrics
  EXPECT_EQ(exposition_sample(text, "persist.appends"), 1u);
  EXPECT_EQ(exposition_sample(text, "phase.request_nanos_count"),
            request.total);
  EXPECT_EQ(exposition_sample(text, "trace.enabled"), 0u);
}

// ---------------------------------------------------------------------------
// Frame codec: the metrics frame.
// ---------------------------------------------------------------------------

TEST(FrameCodecObsTest, MetricsRoundTripAndVersionGate) {
  const std::string exposition =
      "# TYPE dsp_cache_hits counter\ndsp_cache_hits 18\n";
  const std::string payload = service::frame::encode_metrics(exposition);
  EXPECT_EQ(static_cast<std::uint8_t>(payload[0]),
            service::frame::kMetricsVersion);
  EXPECT_EQ(service::frame::decode_metrics(payload, "test"), exposition);

  std::string bad = payload;
  bad[0] = 9;
  EXPECT_THROW((void)service::frame::decode_metrics(bad, "test"),
               InvalidInput);

  std::string trailing = payload + "x";
  EXPECT_THROW((void)service::frame::decode_metrics(trailing, "test"),
               InvalidInput);
}

// ---------------------------------------------------------------------------
// The determinism contract: tracing cannot move a single start coordinate,
// and the obs switches live outside the cache fingerprint.
// ---------------------------------------------------------------------------

class TracingBitIdentity
    : public ::testing::TestWithParam<testing_shapes::ThreadsAndShape> {};

TEST_P(TracingBitIdentity, PackingsIdenticalTracingOnAndOff) {
  const SwitchGuard guard;
  const auto& [threads, shape] = GetParam();

  Rng rng(20260808);
  std::vector<Instance> narrow;
  narrow.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  narrow.push_back(gen::tall_items(30, 48, 20, rng));
  narrow.push_back(gen::smart_grid(24, 96, rng));
  const std::vector<Instance> batch =
      testing_shapes::shaped_batch(shape, narrow);

  // A fresh solver per pass: every request is a real solve.
  const auto solve_all = [&]() {
    service::CachingSolver solver;
    return testing_serve::serve_concurrently(solver, batch, threads);
  };

  set_metrics_enabled(true);
  set_tracing_enabled(false);
  const std::vector<service::SolveResponse> baseline = solve_all();

  set_tracing_enabled(true);
  const std::vector<service::SolveResponse> traced = solve_all();

  set_metrics_enabled(false);
  set_tracing_enabled(false);
  const std::vector<service::SolveResponse> dark = solve_all();

  ASSERT_EQ(baseline.size(), traced.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].packing, traced[i].packing) << "instance " << i;
    EXPECT_EQ(baseline[i].peak, traced[i].peak) << "instance " << i;
    EXPECT_EQ(baseline[i].packing, dark[i].packing) << "instance " << i;
    EXPECT_EQ(baseline[i].peak, dark[i].peak) << "instance " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndShapes, TracingBitIdentity,
                         testing_shapes::threads_and_shapes(),
                         testing_shapes::threads_and_shape_name);

TEST(ObsOutsideFingerprint, TogglesDoNotChangeTheCacheKey) {
  const SwitchGuard guard;
  const service::ServeParams params;

  set_metrics_enabled(true);
  set_tracing_enabled(false);
  const std::uint64_t off = service::params_fingerprint(params);
  set_tracing_enabled(true);
  const std::uint64_t on = service::params_fingerprint(params);
  set_metrics_enabled(false);
  const std::uint64_t dark = service::params_fingerprint(params);
  EXPECT_EQ(off, on);
  EXPECT_EQ(off, dark);
}

TEST(ObsOutsideFingerprint, EntryCachedDarkIsHitWhenTracing) {
  const SwitchGuard guard;
  Rng rng(77);
  const Instance instance = gen::smart_grid(24, 96, rng);

  service::CachingSolver solver(service::ServeParams{});
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  const service::SolveResponse cold = solver.solve(instance);
  EXPECT_EQ(cold.outcome, service::CacheOutcome::kMiss);

  set_metrics_enabled(true);
  set_tracing_enabled(true);
  const service::SolveResponse warm = solver.solve(instance);
  EXPECT_EQ(warm.outcome, service::CacheOutcome::kHit)
      << "flipping the obs switches must not fragment the cache";
  EXPECT_EQ(warm.packing, cold.packing);
  EXPECT_EQ(warm.peak, cold.peak);
}

// ---------------------------------------------------------------------------
// Phase breakdown on Approx54Report.
// ---------------------------------------------------------------------------

TEST(PhaseBreakdown, ReportCarriesAttemptNanosWhenMetricsOn) {
  const SwitchGuard guard;
  set_metrics_enabled(true);
  // Adversarial row 1 (LB 13, witness 21): uncertified at the default eps,
  // so solve54 searches.
  const Instance instance = theorem5::adversarial_instances().front();
  const approx::Approx54Result result = approx::solve54(instance);
  EXPECT_GT(result.report.attempts, 0u);
  EXPECT_GT(result.report.attempt_nanos, 0u);
  // Pricing and LP-resolve time are slices of attempt time (summed over
  // the same attempts).
  EXPECT_GE(result.report.attempt_nanos, result.report.pricing_nanos);
  EXPECT_GE(result.report.pricing_nanos, result.report.lp_resolve_nanos);
}

TEST(PhaseBreakdown, StepOneAnswerCarriesNoAttemptNanos) {
  // One item on W = 1: the witness meets the lower bound and so certifies
  // itself, so solve54 makes no attempt and the attempt nanos stay zero
  // with metrics on; bisect on the same bounds still times its one probe.
  const SwitchGuard guard;
  set_metrics_enabled(true);
  const Instance instance(1, {Item{1, 9}});
  const approx::Approx54Result result = approx::solve54(instance);
  EXPECT_EQ(result.report.attempts, 0u);
  EXPECT_EQ(result.report.attempt_nanos, 0u);
  EXPECT_EQ(result.report.pricing_nanos, 0u);
  EXPECT_EQ(result.report.lp_resolve_nanos, 0u);
  const approx::Bisection search = approx::bisect(
      instance, result.report.lower_bound, result.report.upper_bound,
      approx::Approx54Params{}.epsilon);
  EXPECT_EQ(search.attempts, 1u);
  EXPECT_GT(search.attempt_nanos, 0u);
}

TEST(PhaseBreakdown, ReportNanosAreZeroWhenObsOff) {
  const SwitchGuard guard;
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  Rng rng(502);
  const Instance instance = gen::random_uniform(40, 64, 32, 12, rng);
  const approx::Approx54Result result = approx::solve54(instance, {});
  EXPECT_EQ(result.report.attempt_nanos, 0u);
  EXPECT_EQ(result.report.pricing_nanos, 0u);
  EXPECT_EQ(result.report.lp_resolve_nanos, 0u);
}

}  // namespace
}  // namespace dsp::obs
