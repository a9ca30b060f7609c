#include "runtime/thread_pool.hpp"

namespace dsp::runtime {

namespace {

// Monotone stat, never control flow: relaxed is enough.
std::atomic<std::uint64_t> g_executed{0};

}  // namespace

std::size_t resolve_worker_count(std::size_t requested,
                                 std::size_t reported_hardware) {
  if (requested > 0) return requested;
  if (reported_hardware == 0) return kUnknownHardwareWorkers;
  return reported_hardware;
}

std::size_t hardware_threads() {
  return resolve_worker_count(0, std::thread::hardware_concurrency());
}

SchedulerCounters scheduler_totals() {
  SchedulerCounters totals;
  totals.executed = g_executed.load(std::memory_order_relaxed);
  return totals;
}

void detail::count_executed(std::uint64_t items) {
  g_executed.fetch_add(items, std::memory_order_relaxed);
}

}  // namespace dsp::runtime
