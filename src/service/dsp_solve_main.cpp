// dsp_solve — the serving layer's executable front door (DESIGN.md, "The
// serving layer").
//
// Reads instance files (binary or JSON wire format, auto-detected) or whole
// directories of them, serves every request through the canonicalizing
// single-flight solve cache, and emits one JSON line per answer plus a
// summary line with the cache counters — the same flat-row shape the bench
// harnesses print (util/json_row.hpp), so the same scrapers work on both.
// The row printers live in service/cli.hpp, shared with dsp_served's client
// mode, which must stay byte-identical to this output.
//
//   dsp_solve [flags] <file-or-directory>...
//     --cache-mb M                 solve-cache budget in MiB (default 64)
//     --repeat R                   serve the request list R >= 1 times
//                                  (default 1; repeats after the first hit
//                                  the cache)
//     --metrics-out FILE           write the Prometheus-style metrics
//                                  exposition to FILE at exit
//     --trace-out FILE             enable phase tracing; write the Chrome
//                                  trace-event JSON to FILE at exit
//     --emit-corpus DIR            write the golden gen corpus to DIR and exit
//
// Every request goes through the cache and is solved by approx::solve54
// (Theorem 5), the only serve pipeline; every solve places on the
// run-length Profile (core/profile.hpp), the only profile there is.  Each
// pass serves its files in order on the calling thread.
//
// With --repeat > 1 a per-pass latency breakdown goes to *stderr* (stdout
// rows stay byte-identical to the golden corpus): one "latency" row each
// for the cold pass (pass 0), the warm passes (1..R-1 merged), and
// overall, with p50/p95/p99 solve latencies from the phase histograms
// (coarse log2-bucket upper bounds).
//
// Exit status: 0 on success, 1 on usage errors (bad flags, bad paths),
// 2 on load/solve failures.

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "gen/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/cli.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"
#include "util/json_row.hpp"

namespace {

using namespace dsp;

struct CliOptions {
  std::size_t cache_mb = 64;
  std::size_t repeat = 1;
  std::string metrics_out;  ///< exposition written at exit
  std::string trace_out;    ///< enables tracing; Chrome JSON written at exit
  std::string emit_corpus_dir;
  std::vector<std::string> paths;
};

void print_usage(std::ostream& os) {
  os << "usage: dsp_solve [--cache-mb M] [--repeat R] [--metrics-out FILE]\n"
        "                 [--trace-out FILE] [--emit-corpus DIR]\n"
        "                 <file-or-directory>...\n";
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "dsp_solve: " << message << "\n";
  print_usage(std::cerr);
  std::exit(1);
}

[[nodiscard]] CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  const auto next_value = [&](int& i, const std::string& flag) {
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (arg == "--cache-mb") {
      const std::string value = next_value(i, arg);
      options.cache_mb = service::parse_count(arg, value, usage_error);
      if (!service::cache_mb_to_bytes(options.cache_mb)) {
        usage_error("bad value for --cache-mb: " + value + " (expected 1.." +
                    std::to_string(service::kMaxCacheMb) + ")");
      }
    } else if (arg == "--repeat") {
      options.repeat = service::parse_repeat(next_value(i, arg), usage_error);
    } else if (arg == "--metrics-out") {
      options.metrics_out = next_value(i, arg);
    } else if (arg == "--trace-out") {
      options.trace_out = next_value(i, arg);
    } else if (arg == "--emit-corpus") {
      options.emit_corpus_dir = next_value(i, arg);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown flag " + arg);
    } else {
      options.paths.push_back(arg);
    }
  }
  return options;
}

/// One stderr latency row: solve-phase quantiles over a histogram window.
void print_latency_row(const char* window, const obs::HistogramSnapshot& snap) {
  JsonRow()
      .field("dsp_solve", "latency")
      .field("window", std::string(window))
      .field("count", snap.total)
      .field("p50_nanos", snap.quantile(50, 100))
      .field("p95_nanos", snap.quantile(95, 100))
      .field("p99_nanos", snap.quantile(99, 100))
      .field("sum_nanos", snap.sum)
      .print(std::cerr);
}

int emit_corpus(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    const std::string path = dir + "/" + golden.name + ".json";
    service::save_instance_file(
        path,
        service::WireInstance::from_instance(golden.instance, golden.name),
        service::WireFormat::kJson);
    std::cout << path << ": " << golden.instance.summary() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse_args(argc, argv);
  if (!options.trace_out.empty()) obs::set_tracing_enabled(true);
  if (!options.emit_corpus_dir.empty()) {
    return emit_corpus(options.emit_corpus_dir);
  }
  if (options.paths.empty()) {
    usage_error("no instance files given");
  }

  // Expansion diagnoses mistyped paths and instance-free directories here,
  // as usage errors — not as a load failure halfway through serving.
  std::vector<std::string> files;
  try {
    files = service::expand_instance_paths(options.paths);
  } catch (const dsp::InvalidInput& error) {
    usage_error(error.what());
  }

  try {
    // Load once, serve --repeat times: the repeat axis is what shows the
    // cache working (every pass after the first is all hits).  Per-file
    // work (instance construction, the lower bound printed per row) runs
    // once, not once per repeat.
    std::vector<service::WireInstance> wires;
    std::vector<Instance> file_instances;
    std::vector<Height> file_lower_bounds;
    wires.reserve(files.size());
    for (const std::string& file : files) {
      // The row's lower bound is traced work too: give it a request id of
      // its own so no span in the trace is left unattributed.
      const obs::RequestScope ingest_scope;
      wires.push_back(service::load_instance_file(file));
      file_instances.push_back(wires.back().to_instance());
      file_lower_bounds.push_back(combined_lower_bound(file_instances.back()));
    }
    service::CachingSolver solver(
        service::ServeParams{},
        service::CacheOptions{*service::cache_mb_to_bytes(options.cache_mb)});

    // The phase-histogram snapshot after pass 0 is what turns --repeat
    // into a cold-vs-warm latency experiment: pass 0 misses, later passes
    // hit.
    const obs::Histogram& solve_hist =
        obs::phase_histogram(obs::Phase::kSolve);
    const obs::HistogramSnapshot before = solve_hist.snapshot();
    obs::HistogramSnapshot after_cold = before;
    std::vector<service::SolveResponse> responses;
    responses.reserve(options.repeat * wires.size());
    for (std::size_t pass = 0; pass < options.repeat; ++pass) {
      for (const Instance& instance : file_instances) {
        responses.push_back(solver.solve(instance));
      }
      if (pass == 0) after_cold = solve_hist.snapshot();
    }

    for (std::size_t r = 0; r < responses.size(); ++r) {
      const std::size_t f = r % files.size();
      const service::SolveResponse& response = responses[r];
      service::print_answer_row(
          std::cout,
          service::AnswerRow{files[f], wires[f].name, wires[f].items.size(),
                             wires[f].strip_width, file_lower_bounds[f],
                             response.peak, response.winner,
                             response.outcome});
    }
    service::print_summary_row(
        std::cout,
        service::SummaryRow{responses.size(), files.size(), options.repeat,
                            solver.stats(), options.cache_mb});
    if (options.repeat > 1) {
      // Per-repeat latency quantiles, on stderr so the golden stdout diff
      // never sees them (and zeros when metrics are compiled/switched off).
      const obs::HistogramSnapshot final_snap = solve_hist.snapshot();
      print_latency_row("cold", after_cold.since(before));
      print_latency_row("warm", final_snap.since(after_cold));
      print_latency_row("overall", final_snap.since(before));
    }
    if (!options.metrics_out.empty()) {
      service::write_output_file(
          "dsp_solve", options.metrics_out, "metrics exposition",
          [](std::ostream& os) {
            os << obs::Registry::global().prometheus_text();
          });
    }
    if (!options.trace_out.empty()) {
      service::write_output_file(
          "dsp_solve", options.trace_out, "trace", [](std::ostream& os) {
            obs::Tracer::global().write_chrome_trace(os);
          });
    }
  } catch (const std::exception& error) {
    std::cerr << "dsp_solve: " << error.what() << "\n";
    return 2;
  }
  return 0;
}
