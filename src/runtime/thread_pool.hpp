#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsp::runtime {

/// Monotone process-wide scheduler counters (scheduler_totals()).
struct SchedulerCounters {
  /// Items parallel_map has run (returned or thrown).
  std::uint64_t executed = 0;
  /// Always 0: parallel_map balances load through one shared cursor, so no
  /// item ever migrates.  Kept for readers that still report the field.
  std::uint64_t steals = 0;
};

/// The worker-count rule, exposed as a pure function so the fallback is
/// testable without faking std::thread::hardware_concurrency():
///
///   requested > 0            -> requested (the caller knows best);
///   requested == 0, hw == 0  -> 2 (the standard permits "unknown"; two
///                               workers keep batch fan-out genuinely
///                               concurrent instead of silently
///                               serializing on one worker);
///   requested == 0, hw >= 1  -> hw (1-core containers get exactly 1
///                               worker — correctness never depends on
///                               parallelism, only wall-clock does).
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested,
                                               std::size_t reported_hardware);

/// Worker count used when hardware concurrency is unknown (reported 0).
inline constexpr std::size_t kUnknownHardwareWorkers = 2;

/// resolve_worker_count(0, std::thread::hardware_concurrency()) — always
/// >= 1, and 2 when the hardware width is unknown.
[[nodiscard]] std::size_t hardware_threads();

/// Items run by every parallel_map call so far in this process (complete
/// once that call has returned).
[[nodiscard]] SchedulerCounters scheduler_totals();

namespace detail {
void count_executed(std::uint64_t items);
}  // namespace detail

/// Applies `fn(item, index)` to every element and returns the results in
/// input order: the runtime's one fan-out loop (DESIGN.md, "The parallel
/// runtime").  Starts min(resolve_worker_count(workers), items.size())
/// threads; each claims the next unclaimed index from one shared cursor
/// and stores the result, or the exception, in that index's slot.  So a
/// slow item never stalls the items behind it, and a single worker runs
/// the items in input order.
///
/// Every item runs, even after another has thrown (items may reference
/// caller-owned state, and all threads are joined before returning); then
/// the first exception in input order is rethrown.
template <typename T, typename F>
auto parallel_map(std::size_t workers, const std::vector<T>& items, F&& fn)
    -> std::vector<std::invoke_result_t<F&, const T&, std::size_t>> {
  using R = std::invoke_result_t<F&, const T&, std::size_t>;
  std::vector<std::optional<R>> results(items.size());
  std::vector<std::exception_ptr> errors(items.size());
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&]() {
    std::uint64_t ran = 0;
    for (;;) {
      const std::size_t i = cursor++;
      if (i >= items.size()) break;
      try {
        results[i].emplace(fn(items[i], i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      ++ran;
    }
    detail::count_executed(ran);
  };
  {
    const std::size_t count = std::min(
        resolve_worker_count(workers, std::thread::hardware_concurrency()),
        items.size());
    std::vector<std::jthread> threads;
    threads.reserve(count);
    for (std::size_t t = 0; t < count; ++t) threads.emplace_back(drain);
  }  // joins every thread, also when starting one threw
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<R> out;
  out.reserve(items.size());
  for (std::optional<R>& result : results) out.push_back(std::move(*result));
  return out;
}

}  // namespace dsp::runtime
