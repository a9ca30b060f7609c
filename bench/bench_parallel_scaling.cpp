// Parallel-runtime scaling: portfolio fan-out and batch sharding speedups
// across thread counts, on the n=96 instance families of bench_common.
// Emits one JSON line per (mode, family, threads) with millis and speedup
// over the 1-thread run of the same parallel code path; "seq_millis" is the
// plain sequential loop for reference.  Results are asserted bit-identical
// to the sequential counterparts before any timing is reported.
//
// Streaming rows ("stream" mode) additionally report time-to-first-result:
// the wall-clock gap between calling solve_many_stream and popping the
// first completion-order event, versus the full-batch join.
//
// Skewed-batch scenarios (DESIGN.md, "The work-stealing scheduler"):
//
//   "sched_skew"  — a synthetic 65-task batch (one 40 ms sleep amid 4 ms
//                   sleeps) on an 8-worker pool, static sharding vs. work
//                   stealing.  Sleeps parallelize on any machine, so the
//                   stealing >= 1.5x speedup is asserted *unconditionally*
//                   — this is the CI gate for the scheduler.
//   "solve_skew"  — one 10x-heavier real instance amid cheap ones through
//                   solve_many, static vs. stealing at 2 and 8 threads.
//                   CPU-bound work cannot speed up on narrow machines, so
//                   the >= 1.5x assertion applies only when the machine
//                   reports >= 8 hardware threads; the packing checksums
//                   are machine-independent and always checked.
//
// Every JSON row carries machine parallelism metadata: the raw
// hardware_concurrency() report (0 = unknown), the pool size the row ran
// on (0 = transient pools internal to the timed call), and the pool's
// steal / steal_fail counters.
//
//   bench_parallel_scaling [--smoke] [--out FILE] [--check BENCH_PR9.json]
//
//   --smoke   one timing repeat (CI-friendly); checksums and determinism
//             assertions are unaffected
//   --out     also write the rows to FILE (stdout always gets them)
//   --check   compare the skew-row checksums against a checked-in
//             trajectory; timing ratios warn on stderr only (CI machines
//             are noisy) — checksum differences fail hard

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/portfolio.hpp"
#include "bench_common.hpp"
#include "runtime/channel.hpp"
#include "runtime/parallel.hpp"

namespace dsp::bench {
namespace {

constexpr std::size_t kN = 96;
constexpr int kRepeats = 3;
constexpr std::uint64_t kSeed = 20240613;

// The synthetic skew scenario: 1 heavy + kSkewLight light sleep-tasks on
// kSkewWorkers workers.  Round-robin placement pins the heavy task (index
// 0) plus 8 light tasks on worker 0, so static sharding's wall clock is
// ~72 ms while stealing's is ~43 ms — comfortably past the asserted floor.
constexpr std::size_t kSkewWorkers = 8;
constexpr std::size_t kSkewLight = 64;
constexpr int kHeavyMillis = 40;
constexpr int kLightMillis = 4;
constexpr double kSkewSpeedupFloor = 1.5;

// The solver skew scenario: one n=kSolveSkewHeavyN instance amid
// kSolveSkewBatch-1 instances of n=kSolveSkewLightN (roughly 10x cheaper).
constexpr std::size_t kSolveSkewBatch = 64;
constexpr std::size_t kSolveSkewHeavyN = 192;
constexpr std::size_t kSolveSkewLightN = 48;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

double time_millis(int repeats, const std::function<void()>& body) {
  Stopwatch watch;
  for (int r = 0; r < repeats; ++r) body();
  return watch.millis() / repeats;
}

/// Raw std::thread::hardware_concurrency() — deliberately *not* the
/// resolved ThreadPool::hardware_threads(), so rows record what the
/// machine reported (0 = unknown) next to what the pool actually used.
std::size_t raw_hardware() { return std::thread::hardware_concurrency(); }

/// The machine-parallelism metadata every row carries (satellite: pool
/// size 0 means the timed call built and retired its own pools).
JsonRow sched_fields(JsonRow row, std::size_t pool_size,
                     const runtime::SchedulerCounters& counters) {
  return std::move(row.field("hardware_concurrency", raw_hardware())
                       .field("pool_size", pool_size)
                       .field("steals", counters.steals)
                       .field("steal_fails", counters.steal_fails));
}

/// Prints the row to stdout and appends it to the --out / --check body.
void emit(std::string& body, JsonRow row) {
  std::ostringstream oss;
  row.print(oss);
  std::cout << oss.str();
  body += oss.str();
}

// ---------------------------------------------------------------------------
// Skew scenarios.
// ---------------------------------------------------------------------------

struct SkewRun {
  double millis = 0;
  std::uint64_t checksum = 0;
  runtime::SchedulerCounters counters;  ///< summed over repeats
};

/// One synthetic skewed batch on a fresh pool (fresh so the round-robin
/// cursor starts at worker 0 and the static-sharding placement is
/// reproducible).  Pool construction sits outside the timed region; the
/// row measures submit-to-last-join.
SkewRun run_sched_skew(bool stealing, int repeats) {
  SkewRun run;
  for (int r = 0; r < repeats; ++r) {
    runtime::ThreadPool pool(
        runtime::ThreadPoolOptions{kSkewWorkers, stealing});
    std::vector<std::future<std::uint64_t>> futures;
    futures.reserve(1 + kSkewLight);
    Stopwatch watch;
    for (std::size_t i = 0; i < 1 + kSkewLight; ++i) {
      const int sleep_millis = i == 0 ? kHeavyMillis : kLightMillis;
      futures.push_back(pool.submit([i, sleep_millis]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_millis));
        return mix(0, i);
      }));
    }
    std::uint64_t checksum = 0;
    for (std::future<std::uint64_t>& future : futures) {
      checksum = mix(checksum, future.get());
    }
    run.millis += watch.millis();
    run.checksum = checksum;  // pure function of the indices: repeat-stable
    const runtime::SchedulerCounters counters = pool.counters();
    run.counters.submitted += counters.submitted;
    run.counters.executed += counters.executed;
    run.counters.steals += counters.steals;
    run.counters.steal_fails += counters.steal_fails;
  }
  run.millis /= repeats;
  return run;
}

/// Machine-independent fold of a batch answer set: peaks and every start
/// coordinate, in instance order.
std::uint64_t batch_checksum(const std::vector<runtime::BatchResult>& batch) {
  std::uint64_t checksum = 0;
  for (const runtime::BatchResult& result : batch) {
    checksum = mix(checksum, static_cast<std::uint64_t>(result.peak));
    for (const Length start : result.packing.start) {
      checksum = mix(checksum, static_cast<std::uint64_t>(start));
    }
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// --check: checksum (hard) + timing (warn) comparison against a checked-in
// trajectory, the bench_hot_paths idiom.
// ---------------------------------------------------------------------------

std::string scrape(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  auto begin = at + needle.size();
  auto end = begin;
  if (line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  return line.substr(begin, end - begin);
}

std::string row_key(const std::string& line) {
  return scrape(line, "mode") + "/" + scrape(line, "family") + "/t" +
         scrape(line, "threads") + "/steal" + scrape(line, "stealing");
}

struct CheckOutcome {
  int mismatches = 0;
  int compared = 0;
};

CheckOutcome check_against(const std::string& path, const std::string& body) {
  CheckOutcome outcome;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_parallel_scaling: cannot open " << path << "\n";
    outcome.mismatches = 1;
    return outcome;
  }
  std::map<std::string, std::pair<std::uint64_t, double>> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"checksum\"") == std::string::npos) continue;
    expected[row_key(line)] = {std::stoull(scrape(line, "checksum")),
                               std::stod(scrape(line, "millis"))};
  }
  std::istringstream rows(body);
  while (std::getline(rows, line)) {
    if (line.find("\"checksum\"") == std::string::npos) continue;
    const std::string key = row_key(line);
    const auto it = expected.find(key);
    if (it == expected.end()) continue;  // new scenario: not a failure
    ++outcome.compared;
    const std::uint64_t checksum = std::stoull(scrape(line, "checksum"));
    if (it->second.first != checksum) {
      std::cerr << "bench_parallel_scaling: CHECKSUM MISMATCH " << key
                << ": expected " << it->second.first << ", got " << checksum
                << "\n";
      ++outcome.mismatches;
    }
    // Timing drift: warn-only (machines differ).
    const double millis = std::stod(scrape(line, "millis"));
    if (it->second.second > 0 && millis > 3.0 * it->second.second) {
      std::cerr << "bench_parallel_scaling: warning: " << key << " at "
                << millis << " ms vs recorded " << it->second.second
                << " (3x regression threshold)\n";
    }
  }
  return outcome;
}

int main_impl(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: bench_parallel_scaling [--smoke] [--out FILE] "
                   "[--check FILE]\n";
      return 2;
    }
  }
  const int repeats = smoke ? 1 : kRepeats;

  const std::size_t hardware = runtime::ThreadPool::hardware_threads();
  std::cout << "# bench_parallel_scaling: n=" << kN
            << " families, hardware_threads=" << hardware
            << " (speedups are bounded by the physical core count)\n";

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  Table table({"mode", "family", "threads", "millis", "speedup"});
  std::string body;

  for (const Family& family : families()) {
    Rng rng(kSeed);
    const Instance instance = family.make(kN, rng);

    // Mode 1: one instance, the portfolio fanned out across workers.
    std::string seq_winner;
    const Packing seq_best = algo::best_of_portfolio(instance, &seq_winner);
    const double seq_millis =
        time_millis(repeats, [&]() { (void)algo::best_of_portfolio(instance); });
    double base_millis = 0;
    for (const std::size_t threads : thread_counts) {
      // Pool built outside the timed region: the rows measure solve
      // scaling, not thread spawn/join churn.
      runtime::ThreadPool pool(threads);
      std::string winner;
      const Packing parallel_best =
          runtime::parallel_best_of_portfolio(pool, instance, &winner);
      if (!(parallel_best == seq_best) || winner != seq_winner) {
        std::cerr << "determinism violation (portfolio, " << family.name
                  << ", threads=" << threads << ")\n";
        return EXIT_FAILURE;
      }
      const double millis = time_millis(repeats, [&]() {
        (void)runtime::parallel_best_of_portfolio(pool, instance);
      });
      if (threads == 1) base_millis = millis;
      const double speedup = millis > 0 ? base_millis / millis : 0.0;
      table.begin_row()
          .cell("portfolio")
          .cell(family.name)
          .cell(threads)
          .cell(millis)
          .cell(speedup);
      emit(body, sched_fields(machine_fields(JsonRow())
                                  .field("bench", "parallel_scaling")
                                  .field("mode", "portfolio")
                                  .field("family", family.name)
                                  .field("n", kN)
                                  .field("threads", threads)
                                  .field("hardware_threads", hardware)
                                  .field("millis", millis)
                                  .field("seq_millis", seq_millis)
                                  .field("speedup", speedup),
                              pool.size(), pool.counters()));
    }

    // Mode 2: a batch of instances sharded across workers.
    constexpr std::size_t kBatch = 16;
    std::vector<Instance> batch;
    for (std::size_t b = 0; b < kBatch; ++b) {
      Rng shard = rng.spawn(b);  // per-shard seeding: order-independent
      batch.push_back(family.make(kN / 2, shard));
    }
    std::vector<runtime::BatchResult> sequential;
    for (const Instance& inst : batch) {
      runtime::BatchResult result;
      result.packing = algo::best_of_portfolio(inst, &result.winner);
      result.peak = peak_height(inst, result.packing);
      sequential.push_back(std::move(result));
    }
    base_millis = 0;
    for (const std::size_t threads : thread_counts) {
      runtime::ThreadPool pool(threads);
      if (runtime::solve_many(pool, batch) != sequential) {
        std::cerr << "determinism violation (solve_many, " << family.name
                  << ", threads=" << threads << ")\n";
        return EXIT_FAILURE;
      }
      const double millis = time_millis(
          repeats, [&]() { (void)runtime::solve_many(pool, batch); });
      if (threads == 1) base_millis = millis;
      const double speedup = millis > 0 ? base_millis / millis : 0.0;
      table.begin_row()
          .cell("solve_many")
          .cell(family.name)
          .cell(threads)
          .cell(millis)
          .cell(speedup);
      emit(body, sched_fields(machine_fields(JsonRow())
                                  .field("bench", "parallel_scaling")
                                  .field("mode", "solve_many")
                                  .field("family", family.name)
                                  .field("n", kN / 2)
                                  .field("batch", kBatch)
                                  .field("threads", threads)
                                  .field("hardware_threads", hardware)
                                  .field("millis", millis)
                                  .field("speedup", speedup),
                              pool.size(), pool.counters()));
    }

    // Mode 3: the same batch through the streaming pipeline.  Rows report
    // the time until the first completion-order event next to the full
    // join; the streamed final vector is asserted identical to the
    // sequential loop first.
    for (const std::size_t threads : thread_counts) {
      runtime::ThreadPool pool(threads);
      {
        runtime::Channel<runtime::BatchEvent> check;
        if (runtime::solve_many_stream(pool, batch, check) != sequential) {
          std::cerr << "determinism violation (solve_many_stream, "
                    << family.name << ", threads=" << threads << ")\n";
          return EXIT_FAILURE;
        }
      }
      double first_millis = 0;
      double total_millis = 0;
      for (int r = 0; r < repeats; ++r) {
        runtime::Channel<runtime::BatchEvent> sink;
        Stopwatch watch;
        auto join = std::async(std::launch::async, [&]() {
          return runtime::solve_many_stream(pool, batch, sink);
        });
        if (sink.pop()) first_millis += watch.millis();
        while (sink.pop()) {
        }
        (void)join.get();
        total_millis += watch.millis();
      }
      first_millis /= repeats;
      total_millis /= repeats;
      table.begin_row()
          .cell("stream")
          .cell(family.name)
          .cell(threads)
          .cell(total_millis)
          .cell(total_millis > 0 ? first_millis / total_millis : 0.0);
      emit(body,
           sched_fields(machine_fields(JsonRow())
                            .field("bench", "parallel_scaling")
                            .field("mode", "stream")
                            .field("family", family.name)
                            .field("n", kN / 2)
                            .field("batch", kBatch)
                            .field("threads", threads)
                            .field("hardware_threads", hardware)
                            .field("millis_first", first_millis)
                            .field("millis_total", total_millis)
                            .field("first_fraction",
                                   total_millis > 0
                                       ? first_millis / total_millis
                                       : 0.0),
                        pool.size(), pool.counters()));
    }
  }

  // Mode 4 ("sched_skew"): the synthetic skewed batch.  Sleep-based, so
  // the static-vs-stealing gap parallelizes on any machine — the >= 1.5x
  // assertion is unconditional and gates CI.
  int failures = 0;
  {
    const SkewRun static_run = run_sched_skew(/*stealing=*/false, repeats);
    const SkewRun steal_run = run_sched_skew(/*stealing=*/true, repeats);
    if (static_run.checksum != steal_run.checksum) {
      std::cerr << "determinism violation (sched_skew): static checksum "
                << static_run.checksum << " vs stealing "
                << steal_run.checksum << "\n";
      return EXIT_FAILURE;
    }
    const double speedup =
        steal_run.millis > 0 ? static_run.millis / steal_run.millis : 0.0;
    for (const bool stealing : {false, true}) {
      const SkewRun& run = stealing ? steal_run : static_run;
      table.begin_row()
          .cell(stealing ? "sched_skew/steal" : "sched_skew/static")
          .cell("synthetic")
          .cell(kSkewWorkers)
          .cell(run.millis)
          .cell(stealing ? speedup : 1.0);
      emit(body,
           sched_fields(machine_fields(JsonRow())
                            .field("bench", "parallel_scaling")
                            .field("mode", "sched_skew")
                            .field("family", "synthetic")
                            .field("tasks", 1 + kSkewLight)
                            .field("heavy_millis", kHeavyMillis)
                            .field("light_millis", kLightMillis)
                            .field("threads", kSkewWorkers)
                            .field("hardware_threads", hardware)
                            .field("stealing", stealing ? 1 : 0)
                            .field("millis", run.millis)
                            .field("steal_speedup", stealing ? speedup : 1.0)
                            .field("checksum", run.checksum),
                        kSkewWorkers, run.counters));
    }
    if (speedup < kSkewSpeedupFloor) {
      std::cerr << "bench_parallel_scaling: sched_skew stealing speedup "
                << speedup << " below the asserted " << kSkewSpeedupFloor
                << "x floor (static " << static_run.millis << " ms, stealing "
                << steal_run.millis << " ms)\n";
      ++failures;
    } else {
      std::cerr << "bench_parallel_scaling: sched_skew stealing speedup "
                << speedup << "x (floor " << kSkewSpeedupFloor << "x)\n";
    }
  }

  // Mode 5 ("solve_skew"): one ~10x instance amid cheap ones through
  // solve_many.  Checksums are machine-independent (always compared by
  // --check); the speedup assertion needs real cores, so it only applies
  // on machines reporting >= 8 hardware threads.
  {
    Rng rng(kSeed + 9);
    std::vector<Instance> batch;
    batch.push_back(make_uniform(kSolveSkewHeavyN, rng));
    for (std::size_t b = 1; b < kSolveSkewBatch; ++b) {
      Rng shard = rng.spawn(b);
      batch.push_back(make_uniform(kSolveSkewLightN, shard));
    }
    std::vector<runtime::BatchResult> sequential;
    double seq_millis = 0;
    {
      Stopwatch watch;
      for (const Instance& inst : batch) {
        runtime::BatchResult result;
        result.packing = algo::best_of_portfolio(inst, &result.winner);
        result.peak = peak_height(inst, result.packing);
        sequential.push_back(std::move(result));
      }
      seq_millis = watch.millis();
    }
    const std::uint64_t seq_checksum = batch_checksum(sequential);

    std::map<std::pair<std::size_t, bool>, double> measured;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      for (const bool stealing : {false, true}) {
        runtime::ThreadPool pool(runtime::ThreadPoolOptions{threads, stealing});
        const std::vector<runtime::BatchResult> results =
            runtime::solve_many(pool, batch);
        if (results != sequential) {
          std::cerr << "determinism violation (solve_skew, threads=" << threads
                    << ", stealing=" << stealing << ")\n";
          return EXIT_FAILURE;
        }
        const double millis = time_millis(
            repeats, [&]() { (void)runtime::solve_many(pool, batch); });
        measured[{threads, stealing}] = millis;
        const double static_millis = measured[{threads, false}];
        const double speedup =
            stealing && millis > 0 ? static_millis / millis : 1.0;
        table.begin_row()
            .cell(stealing ? "solve_skew/steal" : "solve_skew/static")
            .cell("uniform")
            .cell(threads)
            .cell(millis)
            .cell(speedup);
        emit(body,
             sched_fields(machine_fields(JsonRow())
                              .field("bench", "parallel_scaling")
                              .field("mode", "solve_skew")
                              .field("family", "uniform")
                              .field("n_heavy", kSolveSkewHeavyN)
                              .field("n_light", kSolveSkewLightN)
                              .field("batch", kSolveSkewBatch)
                              .field("threads", threads)
                              .field("hardware_threads", hardware)
                              .field("stealing", stealing ? 1 : 0)
                              .field("millis", millis)
                              .field("seq_millis", seq_millis)
                              .field("steal_speedup", speedup)
                              .field("checksum", seq_checksum),
                          pool.size(), pool.counters()));
      }
    }
    const double ratio_8 = measured[{8, true}] > 0
                               ? measured[{8, false}] / measured[{8, true}]
                               : 0.0;
    if (hardware >= 8) {
      if (ratio_8 < kSkewSpeedupFloor) {
        std::cerr << "bench_parallel_scaling: solve_skew stealing speedup "
                  << ratio_8 << " below the asserted " << kSkewSpeedupFloor
                  << "x floor at 8 threads\n";
        ++failures;
      }
    } else {
      std::cerr << "bench_parallel_scaling: solve_skew speedup assertion "
                   "skipped (hardware_threads="
                << hardware << " < 8); measured " << ratio_8
                << "x at 8 threads\n";
    }
    (void)seq_checksum;
  }

  table.print(std::cout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << body;
  }
  if (!check_path.empty()) {
    const CheckOutcome outcome = check_against(check_path, body);
    std::cerr << "bench_parallel_scaling: checked " << outcome.compared
              << " rows against " << check_path << ", " << outcome.mismatches
              << " mismatches\n";
    failures += outcome.mismatches;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) {
  return dsp::bench::main_impl(argc, argv);
}
