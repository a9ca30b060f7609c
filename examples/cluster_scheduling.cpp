// Parallel task scheduling through the DSP duality (Theorem 1): rigid jobs
// on a cluster are scheduled by packing the transformed items, and machine
// assignments are recovered with the constructive sweep.  Also demonstrates
// the Corollary-3/4 machine-augmentation frameworks.

#include <iostream>
#include <string>

#include "augment/augment.hpp"
#include "exact/pts_exact.hpp"
#include "pts/pts.hpp"
#include "service/cache.hpp"
#include "transform/transform.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

int main() {
  using namespace dsp;
  Rng rng(7);

  // A small cluster: 6 machines, mixed rigid jobs (time, machines).
  std::vector<pts::Job> jobs;
  for (int j = 0; j < 14; ++j) {
    jobs.push_back(pts::Job{rng.uniform(1, 9), static_cast<int>(rng.uniform(1, 4))});
  }
  const pts::PtsInstance cluster(6, jobs);
  std::cout << "Cluster: m=6 machines, n=" << cluster.size()
            << " jobs, work bound=" << cluster.work_lower_bound() << "\n\n";

  // Exact makespan via the Theorem-1 duality.
  const auto opt = exact::pts_min_makespan(cluster);
  std::cout << "exact optimal makespan          : " << opt.makespan
            << (opt.proven_optimal ? " (proven)" : " (limit hit)") << "\n";

  // Validate and show the recovered machine assignment for a few jobs.
  if (pts::validate(cluster, opt.schedule) == std::nullopt) {
    std::cout << "schedule validated: every job has its q(j) machines and no "
                 "machine is double-booked\n\n";
  }
  Table table({"job", "p(j)", "q(j)", "start", "machines"});
  for (std::size_t j = 0; j < 5; ++j) {
    std::string machines;
    for (const int m : opt.schedule.machines[j]) {
      if (!machines.empty()) machines += ',';
      machines += std::to_string(m);
    }
    table.begin_row()
        .cell(j)
        .cell(cluster.job(j).time)
        .cell(cluster.job(j).machines)
        .cell(opt.schedule.start[j])
        .cell(machines);
  }
  table.print(std::cout);

  // Corollary 3 / 4: optimal makespan with augmented machines.
  const auto aug53 = augment::augment_pts_machines_53(cluster, Fraction(1, 6));
  const auto aug54 = augment::augment_pts_machines_54(cluster, Fraction(1, 4));
  std::cout << "\nCorollary 3 ((5/3+eps)-machines): makespan "
            << aug53.makespan << " on " << aug53.augmented_machines
            << " machines\n";
  std::cout << "Corollary 4 ((5/4+eps)-machines): makespan "
            << aug54.makespan << " on " << aug54.augmented_machines
            << " machines\n";
  std::cout << "(optimal makespan on 6 machines was " << opt.makespan
            << "; augmentation may only improve it)\n";

  // Batch capacity planning: a fleet of clusters, each with its own job mix
  // and a shared deadline T.  Theorem 1 maps "finish by T" onto a strip of
  // width T, and the DSP peak of the packing is the machine count that
  // cluster needs.  CachingSolver::solve plans each cluster in turn.
  constexpr Length kDeadline = 24;
  constexpr std::size_t kFleet = 8;
  std::vector<pts::PtsInstance> fleet;
  std::vector<Instance> strips;
  for (std::size_t c = 0; c < kFleet; ++c) {
    Rng cluster_rng = rng.spawn(c);  // per-cluster stream: order-independent
    std::vector<pts::Job> mix;
    const auto jobs_in_mix = static_cast<std::size_t>(cluster_rng.uniform(10, 18));
    for (std::size_t j = 0; j < jobs_in_mix; ++j) {
      mix.push_back(pts::Job{cluster_rng.uniform(1, 12),
                             static_cast<int>(cluster_rng.uniform(1, 5))});
    }
    fleet.emplace_back(6, mix);
    strips.push_back(transform::pts_to_dsp_instance(fleet.back(), kDeadline));
  }
  service::CachingSolver planner;
  std::vector<service::SolveResponse> plans;
  for (const Instance& strip : strips) plans.push_back(planner.solve(strip));
  std::cout << "\nFleet capacity plan (deadline T=" << kDeadline << ", "
            << kFleet << " clusters):\n";
  Table plan_table({"cluster", "jobs", "work LB", "machines", "winner"});
  for (std::size_t c = 0; c < kFleet; ++c) {
    plan_table.begin_row()
        .cell(c)
        .cell(fleet[c].size())
        .cell((fleet[c].total_work() + kDeadline - 1) / kDeadline)
        .cell(plans[c].peak)
        .cell(plans[c].winner);
  }
  plan_table.print(std::cout);

  // Re-planning through the serving layer: operations re-asks the same
  // capacity questions every review cycle (the fleet's shapes rarely
  // change), so repeated waves of the same 8 scenarios are the natural
  // workload for service::CachingSolver.  Wave 1 computes each distinct
  // scenario once; every later wave is answered from the canonicalizing
  // single-flight cache — watch the hit/miss counters.
  constexpr std::size_t kWaves = 3;
  service::CachingSolver serving;
  std::vector<service::SolveResponse> served;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    for (const Instance& strip : strips) served.push_back(serving.solve(strip));
  }
  const service::CacheStats cache_stats = serving.stats();
  std::cout << "\nServing-layer re-planning (" << kWaves << " waves x "
            << kFleet << " scenarios through service::CachingSolver):\n";
  Table serve_table({"wave", "cluster", "machines", "winner", "cache"});
  for (std::size_t r = 0; r < served.size(); ++r) {
    const char* outcome =
        served[r].outcome == service::CacheOutcome::kHit
            ? "hit"
            : (served[r].outcome == service::CacheOutcome::kJoined ? "join"
                                                                   : "miss");
    serve_table.begin_row()
        .cell(r / kFleet)
        .cell(r % kFleet)
        .cell(served[r].peak)
        .cell(served[r].winner)
        .cell(outcome);
  }
  serve_table.print(std::cout);
  std::cout << "cache counters: " << cache_stats.misses << " misses, "
            << cache_stats.hits << " hits, " << cache_stats.inflight_joins
            << " in-flight joins over " << served.size()
            << " requests (every scenario solved exactly once)\n";
  return 0;
}
