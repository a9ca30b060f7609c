// e2e_bench: the end-to-end benchmark of the DSP serving stack.
//
//   e2e_bench --workload {solve-cold|solve-wide|serve-zipf} --seed N
//             --seconds S --trace {0|1} [--trace-out FILE] [--state-dir DIR]
//
// Workloads (closed loops, at most 4 busy threads):
//   solve-cold  one caller, in-process CachingSolver (engine solve54); every
//               request a distinct dense-regime instance, so every one misses
//   solve-wide  the same loop on wide strips, where kAuto picks sparse
//   serve-zipf  a loopback Daemon with persistence; two DaemonClients replay
//               Zipf(1.1) repeats of small instances, each repeat re-sent in a
//               random item order; the cache holds about a quarter of them
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// latency and throughput come from the calm half of the window's slices.
// With --trace 1 it alternates untraced and traced requests, runs the
// per-layer probes (layers.hpp) on the traced ones, writes their spans as
// Chrome trace JSON to --trace-out, and reports the per-layer metrics.
//
// Every answer is checked (check.hpp).  Human-readable lines and JSON rows
// come first; the last line of stdout is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit code is 0 only when every check passed.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "layers.hpp"
#include "runtime/thread_pool.hpp"
#include "service/canonical.hpp"
#include "service/daemon.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/json_row.hpp"
#include "workload.hpp"

namespace {

using e2e::Clock;
using e2e::Span;
using e2e::SpanRecorder;
using e2e::Workload;
namespace service = dsp::service;

/// Set-ups per run; setup_s is their median.  A pause between set-ups
/// spreads them over a few hundred milliseconds, so one short burst of
/// contention on the machine cannot move the median.
constexpr int kSetupRepeats = 15;
constexpr std::chrono::milliseconds kSetupPause{20};
/// In-process requests whose peak/LB make up peak_over_lb (whole cycles of
/// both grids: 5 x 36).  The loop always completes them, so the metric is a
/// pure function of the seed.
constexpr std::size_t kQualityRequests = 180;
/// The same for each serve-zipf client; there peak_over_lb averages over
/// the distinct pool entries answered, so the Zipf head does not dominate.
constexpr std::size_t kZipfQualityRequests = 2000;
/// When the window yields fewer latency samples than a p99 needs, the loop
/// runs on, up to this multiple of --seconds (kept small so a slow machine
/// cannot stretch a run far past its budget).
constexpr double kTailExtension = 1.25;
/// The end-to-end metrics come from the calm half of a run (calm_sample in
/// stats.hpp).  In-process, a slice is the fewest whole grid cycles with at
/// least this many requests, so every slice serves the same mix of cells.
constexpr std::size_t kSliceRequests = 32;
/// On serve-zipf a slice is a fixed stretch of time; answers fall in the
/// slice they completed in.
constexpr double kServeSliceSeconds = 0.5;
/// Every this-many serve-zipf answer per client is compared with an
/// in-process CachingSolver answer for the same instance.
constexpr std::size_t kReferenceEvery = 50;
/// serve-zipf traced requests per client that get the service probes.
constexpr std::size_t kServiceProbes = 2000;
/// Spans kept per thread (the rest are counted as dropped): bounds the
/// trace file at a few tens of MB.
constexpr std::size_t kSpanCapacity = 50000;
constexpr std::size_t kMaxReportedFailures = 5;

struct Options {
  Workload workload = Workload::kSolveCold;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string state_dir = ".";
};

[[nodiscard]] bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        const auto workload = e2e::parse_workload(value);
        if (!workload) return false;
        options.workload = *workload;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
        have_trace = true;
      } else if (key == "--trace-out") {
        options.trace_out = value;
      } else if (key == "--state-dir") {
        options.state_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

[[nodiscard]] service::ServeParams serve_params() {
  // Default ServeParams and Approx54Params; only the engine is chosen.
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  return params;
}

[[nodiscard]] service::CacheStats cache_delta(const service::CacheStats& after,
                                              const service::CacheStats& before) {
  service::CacheStats delta = after;
  delta.hits -= before.hits;
  delta.misses -= before.misses;
  delta.inflight_joins -= before.inflight_joins;
  delta.evictions -= before.evictions;
  delta.oversized -= before.oversized;
  return delta;
}

/// What a run measured, before it becomes metrics.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_passed = true;  ///< beyond per-request failures
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  std::vector<double> latency_s;  ///< every answered request
  std::vector<e2e::Slice> slices;  ///< the window's complete slices
  double window_s = 0.0;
  double quality_sum = 0.0;  ///< peak / lower bound over the quality window
  std::size_t quality_count = 0;
  e2e::LayerProbes layers;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < kMaxReportedFailures) failures.push_back(std::move(why));
  }
  void fail_check(std::string why) {
    checks_passed = false;
    if (failures.size() < kMaxReportedFailures) failures.push_back(std::move(why));
  }
};

[[nodiscard]] std::string cell_label(const e2e::Cell& cell) {
  return cell.family + "/n" + std::to_string(cell.n) + "/W" +
         std::to_string(cell.width);
}

// ---------------------------------------------------------------------------
// In-process workloads: solve-cold, solve-wide.
// ---------------------------------------------------------------------------

void run_in_process(const Options& options, SpanRecorder* recorder,
                    RunResult& run) {
  const std::vector<e2e::Cell> cells = e2e::workload_cells(options.workload);
  const dsp::Instance warmup = e2e::warmup_instance(options.workload);

  // Set-up: construct the system under test until it has answered one
  // request; repeated, keeping the last solver for the measured loop.
  std::unique_ptr<service::CachingSolver> solver;
  for (int i = 0; i < kSetupRepeats; ++i) {
    solver.reset();
    std::this_thread::sleep_for(kSetupPause);
    const Clock::time_point start = Clock::now();
    solver = std::make_unique<service::CachingSolver>(serve_params());
    const service::SolveResponse answer = solver->solve(warmup);
    run.setup_s.push_back(e2e::seconds_between(start, Clock::now()));
    dsp::Height lower_bound = 0;
    if (auto error = e2e::check_answer(warmup, answer.packing, answer.peak, lower_bound)) {
      run.fail_check("warm-up: " + *error);
    }
  }

  struct Answer {
    std::size_t index;
    dsp::Instance instance;
    service::SolveResponse response;
  };
  std::vector<Answer> answers;
  std::vector<double> traced_s, untraced_s;
  std::uint64_t tasks = 0, steals = 0;
  const std::size_t min_samples =
      options.trace ? 0 : e2e::min_samples_for(0.99);
  const service::CacheStats cache_before = solver->stats();
  const std::size_t slice_requests =
      cells.size() * ((kSliceRequests + cells.size() - 1) / cells.size());
  Clock::time_point slice_start;

  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
  const auto hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds * kTailExtension));
  for (std::size_t i = 0;; ++i) {
    const Clock::time_point now = Clock::now();
    if (i % slice_requests == 0) {
      if (i > 0) run.slices.back().seconds = e2e::seconds_between(slice_start, now);
      slice_start = now;
    }
    const bool more = i < kQualityRequests || now < deadline ||
                      (run.latency_s.size() < min_samples && now < hard_deadline);
    if (!more) break;
    if (i % slice_requests == 0) run.slices.emplace_back();
    dsp::Instance instance = e2e::stream_request(cells, options.seed, i);
    // Whole grid cycles alternate, so traced and untraced requests see the
    // same mix of cells.
    const bool traced = options.trace && (i / cells.size()) % 2 == 1;
    const std::uint64_t request_id = i + 1;
    ++run.attempted;
    const dsp::runtime::SchedulerCounters sched_before =
        dsp::runtime::scheduler_totals();
    service::SolveResponse response;
    double seconds = 0.0;
    try {
      Span span(traced ? recorder : nullptr, "request", "service", request_id);
      response = solver->solve(instance);
      seconds = span.close();
    } catch (const std::exception& error) {
      run.fail(std::string("request threw: ") + error.what());
      continue;
    }
    run.latency_s.push_back(seconds);
    run.slices.back().latency_s.push_back(seconds);
    if (options.trace) (traced ? traced_s : untraced_s).push_back(seconds);
    if (traced) {
      const dsp::runtime::SchedulerCounters sched_after =
          dsp::runtime::scheduler_totals();
      tasks += sched_after.executed - sched_before.executed;
      steals += sched_after.steals - sched_before.steals;
      run.layers.probe_service(recorder, request_id, instance, response);
      const service::CanonicalForm form = service::canonicalize(instance);
      const e2e::SolverProbe probe = run.layers.probe_solver(
          recorder, request_id, form.instance, cell_label(cells[i % cells.size()]));
      if (probe.solve54_peak != response.peak) {
        run.fail("request " + std::to_string(request_id) +
                 ": standalone solve54 peak " + std::to_string(probe.solve54_peak) +
                 " differs from the served peak " + std::to_string(response.peak));
      }
      run.layers.served(seconds, response.outcome,
                        std::max(0.0, seconds - probe.solve54_seconds));
    }
    answers.push_back({i, std::move(instance), std::move(response)});
  }
  run.window_s = e2e::seconds_between(start, Clock::now());
  // A slice the window cut short holds a different mix of cells: drop it.
  if (!run.slices.empty() && run.slices.back().seconds == 0.0) run.slices.pop_back();

  // Checked after the window, so checking costs no measured time.
  for (const Answer& answer : answers) {
    dsp::Height lower_bound = 0;
    if (auto error = e2e::check_answer(answer.instance, answer.response.packing,
                                       answer.response.peak, lower_bound)) {
      run.fail("request " + std::to_string(answer.index + 1) + ": " + *error);
      continue;
    }
    if (answer.index < kQualityRequests) {
      run.quality_sum += e2e::ratio(static_cast<double>(answer.response.peak),
                                    static_cast<double>(lower_bound));
      ++run.quality_count;
    }
  }
  if (options.trace) {
    const double traced_requests = static_cast<double>(traced_s.size());
    run.layers.set_runtime(e2e::ratio(static_cast<double>(tasks), traced_requests),
                           e2e::ratio(static_cast<double>(steals), traced_requests));
    run.layers.set_cache(cache_delta(solver->stats(), cache_before));
    run.layers.set_overhead(e2e::quantile(traced_s, 0.5),
                            e2e::quantile(untraced_s, 0.5));
  }
}

// ---------------------------------------------------------------------------
// serve-zipf: a loopback daemon and two closed-loop clients.
// ---------------------------------------------------------------------------

/// One answered serve-zipf request kept for checks after the window.
struct KeptAnswer {
  std::size_t pool_index = 0;
  std::vector<std::size_t> order;
  service::SolveResponse response;
  std::uint64_t request_id = 0;
};

/// One traced serve-zipf request.
struct TracedRequest {
  std::size_t pool_index = 0;
  double seconds = 0.0;
  service::CacheOutcome outcome = service::CacheOutcome::kMiss;
  dsp::Height peak = 0;
  std::uint64_t request_id = 0;
};

struct ClientLog {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> latency_s;
  std::vector<double> completed_s;  ///< when each latency_s answer came, from the start
  std::vector<double> traced_s, untraced_s;
  /// peak / lower bound of each pool entry answered in the quality window.
  std::map<std::size_t, double> quality;
  std::vector<KeptAnswer> references;
  std::vector<KeptAnswer> service_probes;
  std::vector<TracedRequest> traced;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < kMaxReportedFailures) failures.push_back(std::move(why));
  }
};

void client_loop(const Options& options, const e2e::ZipfTraffic& traffic,
                 service::DaemonClient& client, std::size_t client_index,
                 Clock::time_point start, Clock::time_point deadline,
                 SpanRecorder* recorder, ClientLog& log) {
  e2e::ZipfStream stream(traffic, options.seed, client_index);
  for (std::size_t k = 0; k < kZipfQualityRequests || Clock::now() < deadline; ++k) {
    const e2e::ZipfRequest request = stream.next();
    const service::WireInstance wire = e2e::permuted_wire(
        traffic.pool[request.pool_index].instance, request.order);
    const std::uint64_t request_id = k * e2e::kZipfClients + client_index + 1;
    const bool traced = options.trace && k % 2 == 1;
    ++log.attempted;
    service::DaemonClient::SolveReply reply;
    double seconds = 0.0;
    try {
      Span span(traced ? recorder : nullptr, "request", "service", request_id);
      reply = client.try_solve(wire);
      seconds = span.close();
    } catch (const std::exception& error) {
      // The connection is unusable after a protocol error: stop this client.
      log.fail(std::string("request threw: ") + error.what());
      return;
    }
    if (reply.status != service::DaemonClient::SolveReply::Status::kOk) {
      log.fail(std::string(reply.status == service::DaemonClient::SolveReply::Status::kBusy
                               ? "busy: "
                               : "error: ") +
               reply.message);
      continue;
    }
    const dsp::Instance sent = wire.to_instance();
    dsp::Height lower_bound = 0;
    if (auto error = e2e::check_answer(sent, reply.response.packing,
                                       reply.response.peak, lower_bound)) {
      log.fail("request " + std::to_string(request_id) + ": " + *error);
      continue;
    }
    log.latency_s.push_back(seconds);
    log.completed_s.push_back(e2e::seconds_between(start, Clock::now()));
    if (options.trace) (traced ? log.traced_s : log.untraced_s).push_back(seconds);
    if (k < kZipfQualityRequests) {
      log.quality.emplace(request.pool_index,
                          e2e::ratio(static_cast<double>(reply.response.peak),
                                     static_cast<double>(lower_bound)));
    }
    if (k % kReferenceEvery == 0) {
      log.references.push_back({request.pool_index, request.order, reply.response, request_id});
    }
    if (traced) {
      log.traced.push_back({request.pool_index, seconds, reply.response.outcome,
                            reply.response.peak, request_id});
      if (log.service_probes.size() < kServiceProbes) {
        log.service_probes.push_back(
            {request.pool_index, request.order, reply.response, request_id});
      }
    }
  }
}

void run_served(const Options& options, Clock::time_point epoch,
                SpanRecorder* recorder, std::vector<std::unique_ptr<SpanRecorder>>& client_recorders,
                RunResult& run) {
  namespace fs = std::filesystem;
  const e2e::ZipfTraffic traffic = e2e::make_zipf_traffic(options.seed);
  const fs::path state_root =
      fs::path(options.state_dir) / ("serve-zipf-" + std::to_string(::getpid()));
  fs::remove_all(state_root);

  service::DaemonOptions daemon_options;
  daemon_options.serve = serve_params();
  daemon_options.cache.capacity_bytes = e2e::kZipfCacheBytes;
  const dsp::Instance warmup = e2e::warmup_instance(Workload::kServeZipf);
  const service::WireInstance warmup_wire = service::WireInstance::from_instance(warmup);

  std::unique_ptr<service::Daemon> daemon;
  std::vector<std::unique_ptr<service::DaemonClient>> clients;
  const auto shutdown = [&]() {
    clients.clear();
    if (daemon) daemon->stop();
    daemon.reset();
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    shutdown();
    std::this_thread::sleep_for(kSetupPause);
    daemon_options.persist_dir = (state_root / ("setup-" + std::to_string(i))).string();
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<service::Daemon>(daemon_options);
    daemon->start();
    for (std::size_t c = 0; c < e2e::kZipfClients; ++c) {
      clients.push_back(std::make_unique<service::DaemonClient>(daemon->port()));
    }
    const service::DaemonClient::SolveReply reply = clients[0]->try_solve(warmup_wire);
    run.setup_s.push_back(e2e::seconds_between(start, Clock::now()));
    dsp::Height lower_bound = 0;
    if (reply.status != service::DaemonClient::SolveReply::Status::kOk) {
      run.fail_check("warm-up refused: " + reply.message);
    } else if (auto error = e2e::check_answer(warmup, reply.response.packing,
                                              reply.response.peak, lower_bound)) {
      run.fail_check("warm-up: " + *error);
    }
  }

  const service::CacheStats cache_before = daemon->solver().stats();
  const dsp::runtime::SchedulerCounters sched_before = dsp::runtime::scheduler_totals();
  std::vector<ClientLog> logs(e2e::kZipfClients);
  const Clock::time_point start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
  {
    // jthreads join when this scope ends, on every path.
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < e2e::kZipfClients; ++c) {
      client_recorders.push_back(std::make_unique<SpanRecorder>(
          epoch, static_cast<int>(c + 2), kSpanCapacity));
      SpanRecorder* client_recorder =
          options.trace ? client_recorders.back().get() : nullptr;
      threads.emplace_back([&, c, client_recorder]() {
        try {
          client_loop(options, traffic, *clients[c], c, start, deadline,
                      client_recorder, logs[c]);
        } catch (const std::exception& error) {
          logs[c].fail(std::string("client stopped: ") + error.what());
        }
      });
    }
  }
  run.window_s = e2e::seconds_between(start, Clock::now());
  const dsp::runtime::SchedulerCounters sched_after = dsp::runtime::scheduler_totals();
  const service::CacheStats cache_after = daemon->solver().stats();
  shutdown();
  fs::remove_all(state_root);

  std::vector<double> traced_s, untraced_s;
  std::map<std::size_t, double> quality;  // over distinct pool entries
  // Whole slices of the --seconds window; answers after it are left out.
  run.slices.resize(static_cast<std::size_t>(options.seconds / kServeSliceSeconds));
  for (e2e::Slice& slice : run.slices) slice.seconds = kServeSliceSeconds;
  for (ClientLog& log : logs) {
    run.attempted += log.attempted;
    run.failed += log.failed;
    for (std::string& why : log.failures) {
      if (run.failures.size() < kMaxReportedFailures) run.failures.push_back(std::move(why));
    }
    for (std::size_t r = 0; r < log.latency_s.size(); ++r) {
      const auto slice = static_cast<std::size_t>(log.completed_s[r] / kServeSliceSeconds);
      if (slice < run.slices.size()) run.slices[slice].latency_s.push_back(log.latency_s[r]);
    }
    run.latency_s.insert(run.latency_s.end(), log.latency_s.begin(), log.latency_s.end());
    traced_s.insert(traced_s.end(), log.traced_s.begin(), log.traced_s.end());
    untraced_s.insert(untraced_s.end(), log.untraced_s.begin(), log.untraced_s.end());
    quality.insert(log.quality.begin(), log.quality.end());
  }
  for (const auto& [pool_index, peak_over_lb] : quality) {
    run.quality_sum += peak_over_lb;
    ++run.quality_count;
  }

  // A sample of answers against an in-process CachingSolver on the same
  // instances, compared up to item order.
  service::CachingSolver reference(serve_params());
  for (const ClientLog& log : logs) {
    for (const KeptAnswer& kept : log.references) {
      const dsp::Instance& base = traffic.pool[kept.pool_index].instance;
      const dsp::Instance sent = e2e::permuted_wire(base, kept.order).to_instance();
      if (!e2e::same_answer_up_to_order(base, reference.solve(base), sent, kept.response)) {
        run.fail("request " + std::to_string(kept.request_id) +
                 ": daemon answer differs from the in-process answer");
      }
    }
  }

  if (!options.trace) return;
  // Per-layer probes run after the window, on this thread, so they neither
  // compete with the daemon for cores nor pollute its scheduler counters.
  const double answered = static_cast<double>(run.latency_s.size());
  run.layers.set_runtime(
      e2e::ratio(static_cast<double>(sched_after.executed - sched_before.executed), answered),
      e2e::ratio(static_cast<double>(sched_after.steals - sched_before.steals), answered));
  run.layers.set_cache(cache_delta(cache_after, cache_before));
  run.layers.set_overhead(e2e::quantile(traced_s, 0.5), e2e::quantile(untraced_s, 0.5));
  for (const ClientLog& log : logs) {
    for (const KeptAnswer& kept : log.service_probes) {
      const dsp::Instance sent =
          e2e::permuted_wire(traffic.pool[kept.pool_index].instance, kept.order).to_instance();
      run.layers.probe_service(recorder, kept.request_id, sent, kept.response);
    }
  }
  std::map<std::size_t, e2e::SolverProbe> solved;  // pool index -> probe
  for (const ClientLog& log : logs) {
    for (const TracedRequest& traced : log.traced) {
      if (traced.outcome != service::CacheOutcome::kMiss ||
          solved.count(traced.pool_index) != 0) {
        continue;
      }
      const service::CanonicalForm form =
          service::canonicalize(traffic.pool[traced.pool_index].instance);
      const e2e::SolverProbe probe = run.layers.probe_solver(
          recorder, traced.request_id, form.instance, traffic.pool[traced.pool_index].family);
      if (probe.solve54_peak != traced.peak) {
        run.fail("request " + std::to_string(traced.request_id) +
                 ": standalone solve54 peak differs from the served peak");
      }
      solved.emplace(traced.pool_index, probe);
    }
  }
  for (const ClientLog& log : logs) {
    for (const TracedRequest& traced : log.traced) {
      const auto probe = solved.find(traced.pool_index);
      const double solver_s =
          traced.outcome == service::CacheOutcome::kMiss && probe != solved.end()
              ? probe->second.solve54_seconds
              : 0.0;
      run.layers.served(traced.seconds, traced.outcome,
                        std::max(0.0, traced.seconds - solver_s));
    }
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

[[nodiscard]] std::string number(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

void print_result(const Options& options, const RunResult& run,
                  const e2e::CalmSample& calm,
                  const std::vector<e2e::Metric>& metrics, std::uint64_t hash) {
  const std::size_t samples = run.latency_s.size();
  const std::size_t calm_samples = calm.latency_s.size();
  std::cout << "e2e_bench workload=" << e2e::workload_name(options.workload)
            << " seed=" << options.seed << " trace=" << (options.trace ? 1 : 0)
            << " requests=" << run.attempted << " samples=" << samples
            << " calm_slices=" << calm.slices << "/" << run.slices.size()
            << " calm_samples=" << calm_samples
            << " p99_samples_beyond=" << e2e::samples_beyond(calm_samples, 0.99)
            << " highest_supported_quantile=" << e2e::highest_supported_quantile(calm_samples)
            << "\n";
  for (const e2e::Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const std::string& why : run.failures) std::cout << "  FAIL " << why << "\n";
  for (const std::string& row : run.layers.group_rows()) std::cout << row;

  dsp::JsonRow row;
  row.field("row", options.trace ? "layers-run" : "e2e-run")
      .field("workload", std::string(e2e::workload_name(options.workload)))
      .field("seed", options.seed)
      .field("workload_hash", [&] {
        char buffer[19];
        std::snprintf(buffer, sizeof buffer, "%016llx",
                      static_cast<unsigned long long>(hash));
        return std::string(buffer);
      }())
      .field("requests", run.attempted)
      .field("failed", run.failed)
      .field("samples", samples)
      .field("window_s", run.window_s)
      .field("slices", run.slices.size())
      .field("calm_slices", calm.slices)
      .field("calm_samples", calm_samples)
      .field("calm_s", calm.seconds)
      .field("spans_recorded", run.spans_recorded)
      .field("spans_dropped", run.spans_dropped)
      .field("error_rate", e2e::ratio(static_cast<double>(run.failed),
                                      static_cast<double>(run.attempted)));
  dsp::machine_fields(row).field(
      "nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  row.print(std::cout);

  const bool correct = run.failed == 0 && run.checks_passed && run.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << e2e::json_string(metrics[i].name)
              << ": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": " << e2e::json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

[[nodiscard]] std::vector<e2e::Metric> end_to_end_metrics(const RunResult& run,
                                                         const e2e::CalmSample& calm) {
  const double attempted = static_cast<double>(run.attempted);
  return {
      {"latency_ms_p50", e2e::quantile(calm.latency_s, 0.5) * 1e3, "ms"},
      {"latency_ms_p99", e2e::quantile(calm.latency_s, 0.99) * 1e3, "ms"},
      {"throughput_rps", e2e::ratio(static_cast<double>(calm.latency_s.size()), calm.seconds), "1/s"},
      {"peak_over_lb", e2e::ratio(run.quality_sum, static_cast<double>(run.quality_count)), "ratio"},
      {"success_rate", 1.0 - e2e::ratio(static_cast<double>(run.failed), attempted), "ratio"},
      {"setup_s", e2e::quantile(run.setup_s, 0.5), "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::cerr << "usage: e2e_bench --workload {solve-cold|solve-wide|serve-zipf} "
                 "--seed N --seconds S --trace {0|1} [--trace-out FILE] "
                 "[--state-dir DIR]\n";
    return 2;
  }
  try {
    const Clock::time_point epoch = Clock::now();
    SpanRecorder recorder(epoch, 1, kSpanCapacity);
    std::vector<std::unique_ptr<SpanRecorder>> client_recorders;
    RunResult run;
    if (options.workload == Workload::kServeZipf) {
      run_served(options, epoch, options.trace ? &recorder : nullptr,
                 client_recorders, run);
    } else {
      run_in_process(options, options.trace ? &recorder : nullptr, run);
    }
    if (options.trace && !options.trace_out.empty()) {
      std::vector<const SpanRecorder*> all{&recorder};
      for (const auto& client : client_recorders) all.push_back(client.get());
      for (const SpanRecorder* thread : all) {
        run.spans_recorded += thread->events().size();
        run.spans_dropped += thread->dropped();
      }
      if (!e2e::write_chrome_trace(options.trace_out, all)) {
        run.fail_check("cannot write the trace to " + options.trace_out);
      }
    }
    const e2e::CalmSample calm = e2e::calm_sample(run.slices, e2e::min_samples_for(0.99));
    const std::vector<e2e::Metric> metrics =
        options.trace ? run.layers.metrics() : end_to_end_metrics(run, calm);
    print_result(options, run, calm, metrics,
                 e2e::workload_hash(options.workload, options.seed));
    return run.failed == 0 && run.checks_passed && run.attempted > 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 1;
  }
}
