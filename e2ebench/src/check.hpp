#pragma once

// The correctness gate every answer passes through.

#include <optional>
#include <string>

#include "core/instance.hpp"
#include "core/packing.hpp"
#include "service/cache.hpp"

namespace e2e {

/// Checks one answer to `instance`: the packing is valid, its recomputed
/// peak equals `reported_peak`, and that peak is at least
/// combined_lower_bound.  Returns what is wrong, or nullopt; the lower
/// bound goes to `lower_bound` either way.
[[nodiscard]] std::optional<std::string> check_answer(
    const dsp::Instance& instance, const dsp::Packing& packing,
    dsp::Height reported_peak, dsp::Height& lower_bound);

/// True when two answers agree up to item order: the same peak and winner,
/// and the same multiset of (width, height, start) placements.  `a` answers
/// `a_instance` and `b` answers `b_instance`, which may list the same items
/// in different orders.
[[nodiscard]] bool same_answer_up_to_order(
    const dsp::Instance& a_instance, const dsp::service::SolveResponse& a,
    const dsp::Instance& b_instance, const dsp::service::SolveResponse& b);

}  // namespace e2e
