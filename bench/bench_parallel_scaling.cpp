// Parallel-runtime scaling: batch fan-out speedups across thread counts
// through the one batch path, CachingSolver::solve_many (the cache is
// cleared before every timed call, so each computes every request).  Emits one JSON line per
// (mode, family, threads) with millis and speedup over the 1-thread run of
// the same code path; "seq_millis" is the plain loop of single-request
// serves for reference.  Every batch answer is asserted bit-identical to
// serving its request alone before any timing is reported; a violation
// exits 1.
//
//   "solve_many"  — a 16-instance batch of n=48 per bench_common family.
//   "solve_skew"  — one n=192 instance amid 63 n=48 ones (roughly 10x
//                   heavier), the skew parallel_map's shared cursor
//                   absorbs.  Its rows carry the machine-independent
//                   checksum of the served answers, pinned by the
//                   SolveSkewChecksumIsPinned test.
//
// Every JSON row carries the raw hardware_concurrency() report (0 =
// unknown) and the number of items the timed calls ran.
//
//   bench_parallel_scaling [--smoke] [--out FILE]
//
//   --smoke   one timing repeat (CI-friendly); determinism assertions are
//             unaffected
//   --out     also write the rows to FILE (stdout always gets them)

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"

namespace dsp::bench {
namespace {

constexpr std::size_t kBatchN = 48;
constexpr int kRepeats = 3;
constexpr std::uint64_t kSeed = 20240613;

// The solver skew scenario: one n=kSolveSkewHeavyN instance amid
// kSolveSkewBatch-1 instances of n=kSolveSkewLightN (roughly 10x cheaper).
constexpr std::size_t kSolveSkewBatch = 64;
constexpr std::size_t kSolveSkewHeavyN = 192;
constexpr std::size_t kSolveSkewLightN = 48;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Raw std::thread::hardware_concurrency() — deliberately *not* the
/// resolved runtime::hardware_threads(), so rows record what the machine
/// reported (0 = unknown) next to what the runtime actually used.
std::size_t raw_hardware() { return std::thread::hardware_concurrency(); }

/// Machine-independent fold of a batch answer set: peaks and every start
/// coordinate, in request order.
std::uint64_t batch_checksum(const std::vector<service::SolveResponse>& batch) {
  std::uint64_t checksum = 0;
  for (const service::SolveResponse& response : batch) {
    checksum = mix(checksum, static_cast<std::uint64_t>(response.peak));
    for (const Length start : response.packing.start) {
      checksum = mix(checksum, static_cast<std::uint64_t>(start));
    }
  }
  return checksum;
}

[[nodiscard]] service::CachingSolver make_solver(std::size_t threads) {
  service::ServeParams params;
  params.threads = threads;
  return service::CachingSolver(params);
}

/// One timed scenario row: mean millis of `repeats` solve_many calls, each
/// on an emptied cache, plus the items those calls ran.
struct Timed {
  double millis = 0;
  std::uint64_t executed = 0;
};

Timed time_batch(service::CachingSolver& solver,
                 const std::vector<Instance>& batch, int repeats) {
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) {
    solver.cache().clear();
    (void)solver.solve_many(batch);
  }
  Timed timed;
  timed.millis = watch.millis() / repeats;
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  timed.executed = after.executed - before.executed;
  return timed;
}

JsonRow sched_fields(JsonRow row, const Timed& timed) {
  return std::move(row.field("hardware_concurrency", raw_hardware())
                       .field("executed", timed.executed));
}

/// Prints the row to stdout and appends it to the --out body.
void emit(std::string& body, JsonRow row) {
  std::ostringstream oss;
  row.print(oss);
  std::cout << oss.str();
  body += oss.str();
}

/// Serves every request alone on the calling thread: the reference every
/// batch answer must equal, and the "seq_millis" baseline.
std::vector<service::SolveResponse> serve_sequentially(
    const std::vector<Instance>& batch, double* millis) {
  service::CachingSolver solver = make_solver(1);
  std::vector<service::SolveResponse> responses;
  responses.reserve(batch.size());
  Stopwatch watch;
  for (const Instance& instance : batch) {
    responses.push_back(solver.solve(instance));
  }
  *millis = watch.millis();
  return responses;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_parallel_scaling [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  const int repeats = smoke ? 1 : kRepeats;

  const std::size_t hardware = runtime::hardware_threads();
  std::cout << "# bench_parallel_scaling: n=" << kBatchN
            << " batches, hardware_threads=" << hardware
            << " (speedups are bounded by the physical core count)\n";

  Table table({"mode", "family", "threads", "millis", "speedup"});
  std::string body;

  // Mode 1 ("solve_many"): a batch of instances per family.
  for (const Family& family : families()) {
    Rng rng(kSeed);
    constexpr std::size_t kBatch = 16;
    std::vector<Instance> batch;
    for (std::size_t b = 0; b < kBatch; ++b) {
      Rng shard = rng.spawn(b);  // per-shard seeding: order-independent
      batch.push_back(family.make(kBatchN, shard));
    }
    double seq_millis = 0;
    const std::vector<service::SolveResponse> sequential =
        serve_sequentially(batch, &seq_millis);
    double base_millis = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      service::CachingSolver solver = make_solver(threads);
      if (solver.solve_many(batch) != sequential) {
        std::cerr << "determinism violation (solve_many, " << family.name
                  << ", threads=" << threads << ")\n";
        return EXIT_FAILURE;
      }
      const Timed timed = time_batch(solver, batch, repeats);
      if (threads == 1) base_millis = timed.millis;
      const double speedup =
          timed.millis > 0 ? base_millis / timed.millis : 0.0;
      table.begin_row()
          .cell("solve_many")
          .cell(family.name)
          .cell(threads)
          .cell(timed.millis)
          .cell(speedup);
      emit(body, sched_fields(machine_fields(JsonRow())
                                  .field("bench", "parallel_scaling")
                                  .field("mode", "solve_many")
                                  .field("family", family.name)
                                  .field("n", kBatchN)
                                  .field("batch", kBatch)
                                  .field("threads", threads)
                                  .field("hardware_threads", hardware)
                                  .field("millis", timed.millis)
                                  .field("seq_millis", seq_millis)
                                  .field("speedup", speedup),
                              timed));
    }
  }

  // Mode 2 ("solve_skew"): one ~10x instance amid cheap ones.
  {
    Rng rng(kSeed + 9);
    std::vector<Instance> batch;
    batch.push_back(make_uniform(kSolveSkewHeavyN, rng));
    for (std::size_t b = 1; b < kSolveSkewBatch; ++b) {
      Rng shard = rng.spawn(b);
      batch.push_back(make_uniform(kSolveSkewLightN, shard));
    }
    double seq_millis = 0;
    const std::vector<service::SolveResponse> sequential =
        serve_sequentially(batch, &seq_millis);
    const std::uint64_t checksum = batch_checksum(sequential);
    double base_millis = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      service::CachingSolver solver = make_solver(threads);
      if (solver.solve_many(batch) != sequential) {
        std::cerr << "determinism violation (solve_skew, threads=" << threads
                  << ")\n";
        return EXIT_FAILURE;
      }
      const Timed timed = time_batch(solver, batch, repeats);
      if (threads == 1) base_millis = timed.millis;
      const double speedup =
          timed.millis > 0 ? base_millis / timed.millis : 0.0;
      table.begin_row()
          .cell("solve_skew")
          .cell("uniform")
          .cell(threads)
          .cell(timed.millis)
          .cell(speedup);
      emit(body, sched_fields(machine_fields(JsonRow())
                                  .field("bench", "parallel_scaling")
                                  .field("mode", "solve_skew")
                                  .field("family", "uniform")
                                  .field("n_heavy", kSolveSkewHeavyN)
                                  .field("n_light", kSolveSkewLightN)
                                  .field("batch", kSolveSkewBatch)
                                  .field("threads", threads)
                                  .field("hardware_threads", hardware)
                                  .field("millis", timed.millis)
                                  .field("seq_millis", seq_millis)
                                  .field("speedup", speedup)
                                  .field("checksum", checksum),
                              timed));
    }
  }

  table.print(std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << body;
  }
  return 0;
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) {
  return dsp::bench::main_impl(argc, argv);
}
