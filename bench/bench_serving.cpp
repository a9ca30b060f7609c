// bench_serving: the dsp_served daemon under Zipf-distributed repeat
// traffic (DESIGN.md, "The serving daemon").
//
// A live in-process daemon is driven over real loopback TCP through
// DaemonClient, in five phases:
//
//   cold     — a Zipf trace against an empty cache: per-request round-trip
//              latency (p50/p99) and the hit rate the skew buys.
//   warm     — the daemon is drained (the graceful-shutdown path) and a new
//              one is booted on the same state directory; the same trace
//              replays against the warm-loaded cache.  Every payload must be
//              bit-identical to the cold run's — any divergence exits 1 —
//              and the miss count must be zero (every distinct instance was
//              persisted).
//   parallel — concurrent clients on their own connections, each verifying
//              payloads against the cold reference; reports throughput.
//   overload — a deliberately tiny admission gate (1 slot, no queue) under
//              concurrent clients; requests shed with `busy` instead of
//              queueing without bound, and the shed count is reported.
//   obs      — warm hits with the observability switches off, metrics on,
//              and tracing on; payloads must stay bit-identical, and the
//              row reports the overhead ratios.
//
// One JSON row per phase, the same flat shape every bench prints.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/trace.hpp"
#include "service/daemon.hpp"

namespace {

using namespace dsp;

constexpr std::size_t kDistinct = 12;
constexpr std::size_t kRequests = 150;
constexpr double kZipfS = 1.1;

/// Ranks 1..n weighted 1/rank^s — the classic repeat-heavy serving skew.
[[nodiscard]] std::vector<std::size_t> zipf_trace(std::size_t distinct,
                                                  std::size_t requests,
                                                  double s, Rng& rng) {
  std::vector<double> cumulative(distinct);
  double total = 0.0;
  for (std::size_t rank = 0; rank < distinct; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cumulative[rank] = total;
  }
  std::vector<std::size_t> trace;
  trace.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    const double needle = rng.real(0.0, total);
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), needle);
    trace.push_back(
        static_cast<std::size_t>(std::distance(cumulative.begin(), it)));
  }
  return trace;
}

[[nodiscard]] double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[index];
}

/// Payload equality (outcome excluded — it is scheduling-dependent).
[[nodiscard]] bool same_answer(const service::SolveResponse& a,
                               const service::SolveResponse& b) {
  return a.peak == b.peak && a.winner == b.winner &&
         a.packing.start == b.packing.start;
}

struct PhaseResult {
  std::vector<double> latencies_ms;
  std::vector<service::SolveResponse> responses;
};

/// Plays `trace` over one connection, collecting round-trip latencies.
[[nodiscard]] PhaseResult play_trace(
    std::uint16_t port, const std::vector<service::WireInstance>& wires,
    const std::vector<std::size_t>& trace) {
  service::DaemonClient client(port);
  PhaseResult result;
  result.latencies_ms.reserve(trace.size());
  result.responses.reserve(trace.size());
  for (const std::size_t index : trace) {
    Stopwatch clock;
    result.responses.push_back(client.solve(wires[index]));
    result.latencies_ms.push_back(clock.millis());
  }
  return result;
}

void print_phase_row(const std::string& phase, const PhaseResult& result,
                     const service::CacheStats& cache, double wall_seconds,
                     std::uint64_t warm_loaded) {
  const double total = static_cast<double>(cache.hits + cache.misses);
  JsonRow()
      .field("bench", "serving")
      .field("phase", phase)
      .field("requests", result.responses.size())
      .field("distinct", kDistinct)
      .field("zipf_s", kZipfS)
      .field("p50_ms", percentile(result.latencies_ms, 0.50))
      .field("p99_ms", percentile(result.latencies_ms, 0.99))
      .field("hits", cache.hits)
      .field("misses", cache.misses)
      .field("hit_rate", total == 0.0 ? 0.0 : cache.hits / total)
      .field("warm_loaded", warm_loaded)
      .field("wall_s", wall_seconds)
      .print(std::cout);
}

}  // namespace

int main() {
  std::cout << "serving: dsp_served under Zipf repeat traffic "
               "(cold / warm restart / parallel / overload)\n\n";
  bool identical = true;

  std::vector<service::WireInstance> wires;
  for (std::size_t d = 0; d < kDistinct; ++d) {
    Rng rng(9100 + d);
    wires.push_back(service::WireInstance::from_instance(
        gen::smart_grid(40, 96, rng), "day-" + std::to_string(d)));
  }
  Rng trace_rng(424242);
  const std::vector<std::size_t> trace =
      zipf_trace(kDistinct, kRequests, kZipfS, trace_rng);

  const std::string state_dir =
      (std::filesystem::temp_directory_path() /
       ("dsp_bench_serving_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(state_dir);

  service::DaemonOptions options;
  options.serve.threads = 2;
  options.cache.capacity_bytes = 8ull << 20;
  options.persist_dir = state_dir;

  // --- cold ---------------------------------------------------------------
  PhaseResult cold;
  {
    service::Daemon daemon(options);
    daemon.start();
    Stopwatch wall;
    cold = play_trace(daemon.port(), wires, trace);
    const double wall_seconds = wall.seconds();
    print_phase_row("cold", cold, daemon.solver().stats(), wall_seconds,
                    daemon.stats().warm_loaded);
    daemon.stop();  // graceful drain: compacts the cache to state_dir
  }

  // --- warm restart -------------------------------------------------------
  {
    service::Daemon daemon(options);
    daemon.start();
    const std::uint64_t warm_loaded = daemon.stats().warm_loaded;
    Stopwatch wall;
    const PhaseResult warm = play_trace(daemon.port(), wires, trace);
    const double wall_seconds = wall.seconds();
    const service::CacheStats cache = daemon.solver().stats();
    print_phase_row("warm", warm, cache, wall_seconds, warm_loaded);
    if (warm_loaded == 0 || cache.misses != 0) {
      std::cerr << "FAIL: warm restart missed (warm_loaded=" << warm_loaded
                << ", misses=" << cache.misses << ")\n";
      identical = false;
    }
    for (std::size_t r = 0; r < trace.size(); ++r) {
      if (!same_answer(cold.responses[r], warm.responses[r])) {
        std::cerr << "FAIL: request " << r
                  << " diverged across the warm restart\n";
        identical = false;
        break;
      }
    }
    daemon.stop();
  }

  // --- parallel clients ---------------------------------------------------
  {
    service::Daemon daemon(options);
    daemon.start();
    constexpr std::size_t kClients = 4;
    std::vector<PhaseResult> results(kClients);
    Stopwatch wall;
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
          results[c] = play_trace(daemon.port(), wires, trace);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    const double wall_seconds = wall.seconds();
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t r = 0; r < trace.size(); ++r) {
        if (!same_answer(results[c].responses[r], cold.responses[r])) {
          std::cerr << "FAIL: client " << c << " request " << r
                    << " diverged under concurrency\n";
          identical = false;
          break;
        }
      }
    }
    std::vector<double> latencies;
    for (const PhaseResult& result : results) {
      latencies.insert(latencies.end(), result.latencies_ms.begin(),
                       result.latencies_ms.end());
    }
    JsonRow()
        .field("bench", "serving")
        .field("phase", "parallel")
        .field("clients", kClients)
        .field("requests", kClients * trace.size())
        .field("p50_ms", percentile(latencies, 0.50))
        .field("p99_ms", percentile(latencies, 0.99))
        .field("throughput_rps",
               static_cast<double>(kClients * trace.size()) / wall_seconds)
        .field("shed", daemon.stats().shed)
        .print(std::cout);
    daemon.stop();
  }

  // --- overload: shed instead of queueing without bound -------------------
  {
    service::DaemonOptions tiny = options;
    tiny.persist_dir.clear();  // overload traffic should not churn the store
    tiny.max_concurrent = 1;
    tiny.max_queue = 0;
    service::Daemon daemon(tiny);
    daemon.start();
    constexpr std::size_t kClients = 4;
    std::vector<std::uint64_t> ok(kClients), busy(kClients);
    // Staggered distinct instances per client: most requests are real
    // solves, so the single admission slot is genuinely contended.
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        service::DaemonClient client(daemon.port());
        for (std::size_t r = 0; r < kDistinct; ++r) {
          const service::DaemonClient::SolveReply reply =
              client.try_solve(wires[(c + r) % kDistinct]);
          if (reply.status == service::DaemonClient::SolveReply::Status::kOk) {
            ++ok[c];
          } else {
            ++busy[c];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    std::uint64_t total_ok = 0, total_busy = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      total_ok += ok[c];
      total_busy += busy[c];
    }
    JsonRow()
        .field("bench", "serving")
        .field("phase", "overload")
        .field("clients", kClients)
        .field("requests", total_ok + total_busy)
        .field("served", total_ok)
        .field("busy", total_busy)
        .field("daemon_shed", daemon.stats().shed)
        .print(std::cout);
    if (total_ok == 0) {
      std::cerr << "FAIL: overloaded daemon served nothing\n";
      identical = false;
    }
    daemon.stop();
  }

  // --- obs overhead: the same warm Zipf traffic with the observability ----
  // switches in each position.  Payloads must stay bit-identical in every
  // mode (the layer observes, it never acts), and the overhead of the
  // default configuration (metrics on, tracing off) over a fully dark run
  // is the number the acceptance row tracks.  Loopback round trips are
  // noisy, so only a gross regression (> 25%) fails the bench; the
  // measured ratios are reported either way.
  {
    service::DaemonOptions obs_options = options;
    obs_options.persist_dir.clear();  // overhead only, no store churn
    service::Daemon daemon(obs_options);
    daemon.start();
    // Warm the cache once so every measured request is a pure hit — the
    // regime where instrumentation overhead is largest relative to work.
    (void)play_trace(daemon.port(), wires, trace);

    struct ObsMode {
      const char* name;
      bool metrics;
      bool tracing;
    };
    constexpr ObsMode kModes[] = {{"off", false, false},
                                  {"metrics", true, false},
                                  {"tracing", true, true}};
    // Modes are interleaved round-robin and summarized by the per-rep
    // median, so slow drift (frequency scaling, background load) hits all
    // three alike instead of whichever mode ran last.
    constexpr std::size_t kReps = 30;
    std::vector<double> rep_seconds[3];
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      for (std::size_t m = 0; m < 3; ++m) {
        obs::set_metrics_enabled(kModes[m].metrics);
        obs::set_tracing_enabled(kModes[m].tracing);
        Stopwatch wall;
        const PhaseResult result = play_trace(daemon.port(), wires, trace);
        rep_seconds[m].push_back(wall.seconds());
        for (std::size_t r = 0; r < trace.size(); ++r) {
          if (!same_answer(result.responses[r], cold.responses[r])) {
            std::cerr << "FAIL: request " << r << " diverged under obs mode "
                      << kModes[m].name << "\n";
            identical = false;
            break;
          }
        }
      }
    }
    obs::set_metrics_enabled(true);  // restore the process defaults
    obs::set_tracing_enabled(false);
    const std::uint64_t spans_recorded =
        obs::Tracer::global().spans_recorded();
    double wall_s[3];
    for (std::size_t m = 0; m < 3; ++m) {
      std::sort(rep_seconds[m].begin(), rep_seconds[m].end());
      wall_s[m] = rep_seconds[m][kReps / 2];
    }
    const double overhead_metrics = wall_s[1] / wall_s[0] - 1.0;
    const double overhead_tracing = wall_s[2] / wall_s[0] - 1.0;
    JsonRow()
        .field("bench", "serving")
        .field("phase", "obs")
        .field("requests", 3 * kReps * trace.size())
        .field("distinct", kDistinct)
        .field("zipf_s", kZipfS)
        .field("median_off_s", wall_s[0])
        .field("median_metrics_s", wall_s[1])
        .field("median_tracing_s", wall_s[2])
        .field("overhead_metrics", overhead_metrics)
        .field("overhead_tracing", overhead_tracing)
        .field("spans_recorded", spans_recorded)
        .print(std::cout);
    if (overhead_metrics > 0.25 || overhead_tracing > 0.5) {
      std::cerr << "FAIL: observability overhead grossly regressed "
                << "(metrics " << overhead_metrics << ", tracing "
                << overhead_tracing << ")\n";
      identical = false;
    }
    daemon.stop();
  }

  std::filesystem::remove_all(state_dir);
  std::cout << "\npayloads " << (identical ? "IDENTICAL" : "DIVERGED")
            << " across restart and concurrency\n";
  return identical ? 0 : 1;
}
