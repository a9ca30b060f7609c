#pragma once

// Serving one CachingSolver from several threads at once, the way the
// daemon's connection threads do (DESIGN.md, "The serving daemon").  The
// served-path suites use it to check that concurrent callers get the same
// answers as one caller and that single flight computes each key once.

#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "core/instance.hpp"
#include "service/cache.hpp"

namespace dsp::testing_serve {

/// Serves `batch` through `solver` from `callers` threads that start
/// together: caller t serves requests t, t + callers, t + 2 callers, ...
/// in order.  Responses come back in request order.  A request that
/// throws terminates the test binary, so callers pass solvable batches.
[[nodiscard]] inline std::vector<service::SolveResponse> serve_concurrently(
    service::CachingSolver& solver, const std::vector<Instance>& batch,
    std::size_t callers) {
  std::vector<service::SolveResponse> responses(batch.size());
  std::latch start(static_cast<std::ptrdiff_t>(callers));
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < callers; ++t) {
      threads.emplace_back([&, t]() {
        start.arrive_and_wait();
        for (std::size_t i = t; i < batch.size(); i += callers) {
          responses[i] = solver.solve(batch[i]);
        }
      });
    }
  }  // joins every caller
  return responses;
}

}  // namespace dsp::testing_serve
