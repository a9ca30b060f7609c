// bench_solve_cache: hit rate vs. throughput of the serving layer's
// canonicalizing single-flight solve cache on repeated smart-grid and
// cluster batches (DESIGN.md, "The serving layer").
//
// For each workload and thread count the same request batch — `distinct`
// unique requests, each repeated `repeats` times, round-robin — is served
// twice: once uncached (each request on a fresh solver, fanned out like
// solve_many) and once through one shared cache.  Responses must be
// bit-identical between the two runs (the serving determinism contract);
// any mismatch exits 1, making this a functional check as well as a
// measurement.  JSON rows carry hit/miss/join
// counters, wall-clock times and the speedup.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pts/pts.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "transform/transform.hpp"

namespace {

using namespace dsp;

/// `distinct` smart-grid days, each repeated `repeats` times round-robin
/// (day 0, day 1, ..., day 0, day 1, ... — the serving-trace shape).
std::vector<Instance> smart_grid_workload(std::size_t distinct,
                                          std::size_t repeats) {
  std::vector<Instance> batch;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t d = 0; d < distinct; ++d) {
      Rng rng(4000 + d);
      batch.push_back(gen::smart_grid(48, 96, rng));
    }
  }
  return batch;
}

/// Repeated cluster capacity questions: `distinct` job mixes transformed
/// onto a strip of width T (the Theorem-1 duality), repeated round-robin.
std::vector<Instance> cluster_workload(std::size_t distinct,
                                       std::size_t repeats) {
  constexpr Length kDeadline = 24;
  std::vector<Instance> shapes;
  for (std::size_t d = 0; d < distinct; ++d) {
    Rng rng(7000 + d);
    std::vector<pts::Job> jobs;
    const auto job_count = static_cast<std::size_t>(rng.uniform(16, 28));
    for (std::size_t j = 0; j < job_count; ++j) {
      jobs.push_back(pts::Job{rng.uniform(1, 12),
                              static_cast<int>(rng.uniform(1, 5))});
    }
    shapes.push_back(
        transform::pts_to_dsp_instance(pts::PtsInstance(6, jobs), kDeadline));
  }
  std::vector<Instance> batch;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t d = 0; d < distinct; ++d) batch.push_back(shapes[d]);
  }
  return batch;
}

struct Workload {
  std::string name;
  std::vector<Instance> (*make)(std::size_t distinct, std::size_t repeats);
};

int run() {
  const std::vector<Workload> workloads = {
      {"smart-grid", smart_grid_workload},
      {"cluster", cluster_workload},
  };
  constexpr std::size_t kDistinct = 12;
  constexpr std::size_t kRepeats = 8;
  const std::vector<std::size_t> thread_counts = {1, 2, 8};

  bool identical = true;
  Table table({"workload", "threads", "requests", "hits", "misses", "joins",
               "uncached ms", "cached ms", "speedup"});
  for (const Workload& workload : workloads) {
    const std::vector<Instance> batch = workload.make(kDistinct, kRepeats);
    for (const std::size_t threads : thread_counts) {
      service::ServeParams cached_params;
      cached_params.threads = threads;

      Stopwatch uncached_watch;
      const std::vector<service::SolveResponse> uncached =
          runtime::parallel_map(
              threads, batch, [](const Instance& instance, std::size_t) {
                return service::CachingSolver().solve(instance);
              });
      const double uncached_ms = uncached_watch.millis();

      service::CachingSolver solver(cached_params);
      Stopwatch cached_watch;
      const std::vector<service::SolveResponse> cached =
          solver.solve_many(batch);
      const double cached_ms = cached_watch.millis();

      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (cached[i].packing != uncached[i].packing ||
            cached[i].peak != uncached[i].peak ||
            cached[i].winner != uncached[i].winner) {
          std::cerr << "MISMATCH: " << workload.name << " threads=" << threads
                    << " request " << i
                    << ": cached and uncached responses differ\n";
          identical = false;
        }
      }

      const service::CacheStats stats = solver.stats();
      const double hit_rate =
          static_cast<double>(stats.hits + stats.inflight_joins) /
          static_cast<double>(batch.size());
      table.begin_row()
          .cell(workload.name)
          .cell(threads)
          .cell(batch.size())
          .cell(stats.hits)
          .cell(stats.misses)
          .cell(stats.inflight_joins)
          .cell(uncached_ms)
          .cell(cached_ms)
          .cell(uncached_ms / std::max(cached_ms, 1e-9));
      dsp::machine_fields(bench::JsonRow())
          .field("bench", "solve_cache")
          .field("workload", workload.name)
          .field("threads", threads)
          .field("distinct", kDistinct)
          .field("repeats", kRepeats)
          .field("requests", batch.size())
          .field("hits", stats.hits)
          .field("misses", stats.misses)
          .field("inflight_joins", stats.inflight_joins)
          .field("evictions", stats.evictions)
          .field("hit_rate", hit_rate)
          .field("millis_uncached", uncached_ms)
          .field("millis_cached", cached_ms)
          .field("speedup", uncached_ms / std::max(cached_ms, 1e-9))
          .field("identical", identical ? "yes" : "no")
          .print(std::cout);
    }
  }
  table.print(std::cout);
  if (!identical) {
    std::cerr << "bench_solve_cache: cached responses diverged from uncached "
                 "— serving determinism contract violated\n";
    return 1;
  }
  std::cout << "cached == uncached for every request: serving determinism "
               "contract held\n";
  return 0;
}

}  // namespace

int main() { return run(); }
