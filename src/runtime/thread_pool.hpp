#pragma once

// The hardware-width query behind the daemon's default admission capacity,
// plus the scheduler-counter shim the end-to-end benchmark still reads
// (DESIGN.md, "The parallel runtime").  The runtime has no fan-out: every
// request is served on the thread that asked for it.

#include <cstddef>
#include <cstdint>
#include <thread>

namespace dsp::runtime {

/// Thread count used when hardware concurrency is unknown (reported 0).
inline constexpr std::size_t kUnknownHardwareThreads = 2;

/// The hardware width: `reported` (std::thread::hardware_concurrency() by
/// default), or kUnknownHardwareThreads when that is 0, since the standard
/// lets it report "unknown".  Always >= 1.  A parameter so the fallback is
/// testable without faking hardware_concurrency().
[[nodiscard]] inline std::size_t hardware_threads(
    std::size_t reported = std::thread::hardware_concurrency()) {
  return reported == 0 ? kUnknownHardwareThreads : reported;
}

/// Process-wide scheduler counters.  Both fields are always 0: nothing
/// fans work out over threads.  Kept, like ProfileBackendKind, only
/// because the end-to-end benchmark (e2ebench/src/main.cpp) reports
/// them until its next version.
struct SchedulerCounters {
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
};

/// The (always zero) scheduler totals; see SchedulerCounters.
[[nodiscard]] inline SchedulerCounters scheduler_totals() { return {}; }

}  // namespace dsp::runtime
