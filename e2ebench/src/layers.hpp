#pragma once

// Per-layer attribution for the traced run.  The benchmark calls each
// layer's public functions itself, one at a time and inside spans, on the
// instances the workload serves:
//
//   service  wire codec (save/load_instance, encode/decode_solve_ok) and
//            canonicalize + canonical_hash
//   core     combined_lower_bound; resolve_backend(kAuto, W, n)
//   algo     every member of baseline_portfolio(backend), timed one by one,
//            and the portfolio again on the backend kAuto did not pick
//   approx   solve54 with default parameters, read through Approx54Report
//   lp       the LP slices of that report (pricing and re-solve time)
//
// The runner adds what only the served path shows: latency by cache
// outcome, scheduler-counter deltas (runtime) and cache-stat deltas.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "service/cache.hpp"
#include "spans.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one solver probe found, for cross-checks against the served answer.
struct SolverProbe {
  dsp::Height solve54_peak = 0;
  double solve54_seconds = 0.0;
};

class LayerProbes {
 public:
  LayerProbes();

  /// Service probes on one request as it was sent and answered.
  void probe_service(SpanRecorder* recorder, std::uint64_t request_id,
                     const dsp::Instance& request,
                     const dsp::service::SolveResponse& response);

  /// Solver-stack probes on the canonical instance a miss solved.  `group`
  /// names the per-row breakdown the probe counts toward (cell or family).
  SolverProbe probe_solver(SpanRecorder* recorder, std::uint64_t request_id,
                           const dsp::Instance& canonical,
                           const std::string& group);

  /// One traced served request: its latency, how the cache answered it,
  /// and the service time beyond the solver (latency minus the standalone
  /// solve54 time for misses, the whole latency otherwise).
  void served(double seconds, dsp::service::CacheOutcome outcome,
              double service_self_seconds);

  /// Scheduler tasks executed and steals per served request (deltas of
  /// runtime::scheduler_totals() over the served calls).
  void set_runtime(double tasks_per_request, double steals_per_request);
  /// Cache counters over the traced window.
  void set_cache(const dsp::service::CacheStats& delta);
  /// Traced vs untraced served latency p50 (the tracing overhead).
  void set_overhead(double traced_p50_seconds, double untraced_p50_seconds);

  /// Every per-layer metric, in a fixed order (zeros where a workload does
  /// no such work).
  [[nodiscard]] std::vector<Metric> metrics() const;
  /// One JSON row per group (cell or family) and per strip width, with its
  /// attribution.
  [[nodiscard]] std::vector<std::string> group_rows() const;

 private:
  struct Group {
    std::size_t solves = 0;
    std::vector<double> solve54_ms;
    std::vector<double> portfolio_ms;
    double picked_s = 0.0;
    double best_backend_s = 0.0;
    double first_fit_s = 0.0;
    double members_s = 0.0;
    double step1_s = 0.0;
    double solve54_s = 0.0;
    std::string picked;
  };

  std::vector<std::string> member_names_;
  // service
  std::vector<double> codec_us_;
  std::vector<double> canonicalize_us_;
  std::vector<double> hit_us_;
  std::vector<double> miss_us_;
  std::size_t requests_ = 0;
  std::size_t missed_requests_ = 0;
  double service_self_s_ = 0.0;
  dsp::service::CacheStats cache_;
  // runtime
  double tasks_per_request_ = 0.0;
  double steals_per_request_ = 0.0;
  // per solver probe
  std::size_t solves_ = 0;
  std::vector<double> solve54_ms_;
  std::vector<double> portfolio_ms_;
  std::vector<double> lower_bound_us_;
  double solve54_s_ = 0.0;
  double step1_s_ = 0.0;
  double lower_bound_s_ = 0.0;
  double portfolio_s_ = 0.0;
  double runtime_self_s_ = 0.0;
  double attempts_ = 0.0;
  double rounds_ = 0.0;
  double attempt_s_ = 0.0;
  double witness_at_lb_ = 0.0;
  double pipeline_over_lb_ = 0.0;
  double pipeline_wins_ = 0.0;
  double lp_used_ = 0.0;
  double pricing_rounds_ = 0.0;
  double pricing_s_ = 0.0;
  double lp_resolve_s_ = 0.0;
  std::vector<double> member_s_;
  std::vector<double> unique_wins_;
  double members_after_lb_ = 0.0;
  double witness_over_lb_ = 0.0;
  double sparse_picks_ = 0.0;
  double picked_s_ = 0.0;
  double best_backend_s_ = 0.0;
  // tracing
  double overhead_ratio_ = 0.0;
  std::map<std::string, Group> groups_;
};

}  // namespace e2e
