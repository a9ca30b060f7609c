// dsp_served — the serving daemon's executable front door (DESIGN.md, "The
// serving daemon").
//
// Daemon mode (the default) binds a loopback TCP port, serves DSPW solve
// requests through the canonicalizing single-flight solve cache, and — with
// --persist — keeps the cache warm across restarts via the snapshot +
// append-log store.  It prints one "ready" JSON row (machine-readable port,
// since --port 0 asks the kernel), then runs until SIGTERM/SIGINT, drains
// gracefully, and prints a "drained" row with its lifetime counters.
//
//   dsp_served [--port P] [--cache-mb M] [--max-concurrent N]
//              [--max-queue N] [--persist DIR] [--metrics-out FILE]
//              [--trace-out FILE]
//
// Each admitted request is served on its connection's thread, so
// --max-concurrent is the daemon's concurrency; there is no batch fan-out.
// Every request goes through the cache and is solved by approx::solve54
// (Theorem 5), the only serve pipeline; every solve places on the
// run-length Profile (core/profile.hpp), the only profile there is.
//
// Observability (DESIGN.md, "Observability"): --metrics-out writes the
// Prometheus-style exposition at drain; --trace-out switches the phase
// tracer on and writes the Chrome trace-event JSON at drain.  The drained
// row gains the request-latency quantiles, and one "phase" row per
// observed phase carries the latency breakdown.  Neither flag changes any
// packing (the bit-identity suite in tests/test_obs.cpp).
//
// Client mode sends each instance file to a running daemon and prints rows
// byte-identical to dsp_solve's (the golden corpus guards both):
//
//   dsp_served --connect P [--host ADDR] [--repeat R]
//              [--format binary|json] [--metrics-out FILE]
//              <file-or-directory>...
//
// Client mode reads everything it reports about the daemon — cache budget,
// summary counters — from the daemon's metrics exposition (one metrics
// frame, after the last solve); --metrics-out writes that exposition to
// FILE (stdout rows stay byte-identical).
// A flag only the other mode reads (kDaemonOnlyFlags, kClientOnlyFlags) is
// a usage error.
//
// Exit status: 0 on success, 1 on usage errors, 2 on load/solve/connect
// failures.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cli.hpp"
#include "service/daemon.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"
#include "util/json_row.hpp"

namespace {

using namespace dsp;

struct CliOptions {
  service::DaemonOptions daemon;
  std::size_t cache_mb = 64;
  std::string metrics_out;  ///< exposition written at drain (client: fetched)
  std::string trace_out;    ///< enables tracing; Chrome JSON written at drain
  // Client mode (--connect).
  bool connect = false;
  std::uint16_t connect_port = 0;
  std::string host = "127.0.0.1";
  std::size_t repeat = 1;
  service::WireFormat format = service::WireFormat::kBinary;
  std::vector<std::string> paths;
};

void print_usage(std::ostream& os) {
  os << "usage: dsp_served [--port P] [--cache-mb M] [--max-concurrent N]\n"
        "                  [--max-queue N] [--persist DIR]"
        " [--metrics-out FILE]\n"
        "                  [--trace-out FILE]\n"
        "       dsp_served --connect P [--host ADDR] [--repeat R]\n"
        "                  [--format binary|json] [--metrics-out FILE]\n"
        "                  <file-or-directory>...\n";
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "dsp_served: " << message << "\n";
  print_usage(std::cerr);
  std::exit(1);
}

[[nodiscard]] std::uint16_t parse_port(const std::string& flag,
                                       const std::string& value) {
  const std::size_t port = service::parse_count(flag, value, usage_error);
  if (port > 65535) {
    usage_error("bad value for " + flag + ": " + value +
                " (ports are 0..65535)");
  }
  return static_cast<std::uint16_t>(port);
}

/// Flags only one mode reads.  Passing one in the other mode is a usage
/// error, not a silently ignored setting.
constexpr std::array<std::string_view, 6> kDaemonOnlyFlags = {
    "--port",      "--cache-mb", "--max-concurrent",
    "--max-queue", "--persist",  "--trace-out"};
constexpr std::array<std::string_view, 3> kClientOnlyFlags = {
    "--host", "--repeat", "--format"};

[[nodiscard]] CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  const auto next_value = [&](int& i, const std::string& flag) {
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    return std::string(argv[++i]);
  };
  std::string daemon_flag;  // a daemon-only flag given, if any
  std::string client_flag;  // a client-only flag given, if any
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::ranges::count(kDaemonOnlyFlags, arg) > 0) daemon_flag = arg;
    if (std::ranges::count(kClientOnlyFlags, arg) > 0) client_flag = arg;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--port") {
      options.daemon.port = parse_port(arg, next_value(i, arg));
    } else if (arg == "--cache-mb") {
      const std::string value = next_value(i, arg);
      options.cache_mb = service::parse_count(arg, value, usage_error);
      if (!service::cache_mb_to_bytes(options.cache_mb)) {
        usage_error("bad value for --cache-mb: " + value + " (expected 1.." +
                    std::to_string(service::kMaxCacheMb) + ")");
      }
    } else if (arg == "--max-concurrent") {
      options.daemon.max_concurrent =
          service::parse_count(arg, next_value(i, arg), usage_error);
    } else if (arg == "--max-queue") {
      options.daemon.max_queue =
          service::parse_count(arg, next_value(i, arg), usage_error);
    } else if (arg == "--persist") {
      options.daemon.persist_dir = next_value(i, arg);
    } else if (arg == "--metrics-out") {
      options.metrics_out = next_value(i, arg);
    } else if (arg == "--trace-out") {
      options.trace_out = next_value(i, arg);
    } else if (arg == "--connect") {
      options.connect = true;
      options.connect_port = parse_port(arg, next_value(i, arg));
    } else if (arg == "--host") {
      options.host = next_value(i, arg);
    } else if (arg == "--repeat") {
      options.repeat = service::parse_repeat(next_value(i, arg), usage_error);
    } else if (arg == "--format") {
      const std::string value = next_value(i, arg);
      if (value == "binary") {
        options.format = service::WireFormat::kBinary;
      } else if (value == "json") {
        options.format = service::WireFormat::kJson;
      } else {
        usage_error("unknown format " + value);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown flag " + arg);
    } else {
      options.paths.push_back(arg);
    }
  }
  if (options.connect && !daemon_flag.empty()) {
    usage_error(daemon_flag +
                " is a daemon flag; client mode (--connect) serves with the "
                "daemon's settings");
  }
  if (!options.connect && !client_flag.empty()) {
    usage_error(client_flag + " is only valid in client mode (--connect)");
  }
  options.daemon.cache.capacity_bytes =
      *service::cache_mb_to_bytes(options.cache_mb);
  return options;
}

// ---------------------------------------------------------------------------
// Daemon mode.
// ---------------------------------------------------------------------------

// Self-pipe for SIGTERM/SIGINT: the handler only writes one byte; main
// blocks on the read end and runs the drain outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_shutdown_signal(int) {
  const char byte = 's';
  [[maybe_unused]] const ssize_t wrote = write(g_signal_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  DSP_REQUIRE(pipe(g_signal_pipe) == 0,
              "dsp_served: cannot create signal pipe: "
                  << std::strerror(errno));
  struct sigaction action{};
  action.sa_handler = on_shutdown_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

int run_daemon(const CliOptions& options) {
  if (!options.trace_out.empty()) obs::set_tracing_enabled(true);
  service::Daemon daemon(options.daemon);
  install_signal_handlers();
  daemon.start();
  JsonRow()
      .field("dsp_served", "ready")
      .field("port", daemon.port())
      .field("cache_mb", options.cache_mb)
      .field("max_concurrent", daemon.options().max_concurrent)
      .field("max_queue", daemon.options().max_queue)
      .field("persist", options.daemon.persist_dir)
      .field("warm_loaded", daemon.stats().warm_loaded)
      .print(std::cout);
  std::cout.flush();

  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  daemon.stop();
  const service::DaemonStats stats = daemon.stats();
  const obs::HistogramSnapshot request =
      obs::phase_histogram(obs::Phase::kRequest).snapshot();
  JsonRow()
      .field("dsp_served", "drained")
      .field("accepted", stats.accepted)
      .field("requests", stats.requests)
      .field("served", stats.served)
      .field("shed", stats.shed)
      .field("errors", stats.errors)
      .field("request_p50_nanos", request.quantile(50, 100))
      .field("request_p95_nanos", request.quantile(95, 100))
      .field("request_p99_nanos", request.quantile(99, 100))
      .field("spans_recorded", obs::Tracer::global().spans_recorded())
      .field("spans_dropped", obs::Tracer::global().spans_dropped())
      .print(std::cout);
  // Phase-level latency breakdown, one row per phase that fired (coarse
  // log2-bucket quantiles; the histograms live for the process lifetime).
  for (std::size_t p = 0; p < static_cast<std::size_t>(obs::Phase::kCount);
       ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    const obs::HistogramSnapshot snap = obs::phase_histogram(phase).snapshot();
    if (snap.total == 0) continue;
    JsonRow()
        .field("dsp_served", "phase")
        .field("phase", std::string(obs::phase_name(phase)))
        .field("count", snap.total)
        .field("p50_nanos", snap.quantile(50, 100))
        .field("p95_nanos", snap.quantile(95, 100))
        .field("p99_nanos", snap.quantile(99, 100))
        .print(std::cout);
  }
  if (!options.metrics_out.empty()) {
    service::write_output_file(
        "dsp_served", options.metrics_out, "metrics exposition",
        [](std::ostream& os) {
          os << obs::Registry::global().prometheus_text();
        });
  }
  if (!options.trace_out.empty()) {
    service::write_output_file(
        "dsp_served", options.trace_out, "trace", [](std::ostream& os) {
          obs::Tracer::global().write_chrome_trace(os);
        });
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Client mode: rows byte-identical to dsp_solve's.
// ---------------------------------------------------------------------------

/// A sample the daemon's exposition must carry; a daemon without it is not
/// speaking this client's protocol.
[[nodiscard]] std::uint64_t daemon_sample(const std::string& exposition,
                                          std::string_view name) {
  const std::optional<std::uint64_t> value =
      obs::exposition_sample(exposition, name);
  DSP_REQUIRE(value, "daemon metrics exposition lacks " << name);
  return *value;
}

int run_client(const CliOptions& options,
               const std::vector<std::string>& files) {
  service::DaemonClient client(options.connect_port, options.host);

  std::vector<service::WireInstance> wires;
  std::vector<Height> lower_bounds;
  wires.reserve(files.size());
  for (const std::string& file : files) {
    wires.push_back(service::load_instance_file(file));
    lower_bounds.push_back(combined_lower_bound(wires.back().to_instance()));
  }

  std::size_t requests = 0;
  for (std::size_t pass = 0; pass < options.repeat; ++pass) {
    for (std::size_t f = 0; f < wires.size(); ++f) {
      const service::SolveResponse response =
          client.solve(wires[f], options.format);
      ++requests;
      service::print_answer_row(
          std::cout, service::AnswerRow{files[f], wires[f].name,
                                        wires[f].items.size(),
                                        wires[f].strip_width,
                                        lower_bounds[f], response.peak,
                                        response.winner, response.outcome});
    }
  }

  // The daemon, not this client, owns the cache budget and the counters
  // the summary row reports.
  const std::string after = client.metrics();
  const std::uint64_t capacity_bytes =
      daemon_sample(after, "cache.capacity_bytes");
  service::CacheStats cache;
  cache.hits = daemon_sample(after, "cache.hits");
  cache.misses = daemon_sample(after, "cache.misses");
  cache.inflight_joins = daemon_sample(after, "cache.inflight_joins");
  cache.evictions = daemon_sample(after, "cache.evictions");
  cache.entries = daemon_sample(after, "cache.entries");
  service::print_summary_row(
      std::cout,
      service::SummaryRow{requests, files.size(), options.repeat, cache,
                          static_cast<std::size_t>(capacity_bytes >> 20)});
  if (!options.metrics_out.empty()) {
    // The daemon's exposition (this client records no metrics of note).
    service::write_output_file("dsp_served", options.metrics_out,
                               "metrics exposition",
                               [&](std::ostream& os) { os << after; });
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse_args(argc, argv);
  if (options.connect) {
    if (options.paths.empty()) usage_error("no instance files given");
    // A mistyped path is a usage error, diagnosed before connecting.
    std::vector<std::string> files;
    try {
      files = service::expand_instance_paths(options.paths);
    } catch (const dsp::InvalidInput& error) {
      usage_error(error.what());
    }
    try {
      return run_client(options, files);
    } catch (const std::exception& error) {
      std::cerr << "dsp_served: " << error.what() << "\n";
      return 2;
    }
  }
  if (!options.paths.empty()) {
    usage_error("instance files are only served in client mode (--connect)");
  }
  try {
    return run_daemon(options);
  } catch (const std::exception& error) {
    std::cerr << "dsp_served: " << error.what() << "\n";
    return 2;
  }
}
