#pragma once

#include "sp/sp.hpp"

namespace dsp::sp {

/// Bottom-left skyline heuristic: items in non-increasing height order are
/// placed at the lowest (then leftmost) skyline position that fits.  Not a
/// bounded-ratio algorithm, but the strongest practical SP comparator in the
/// integrality-gap experiments (E1) and a second SP-as-DSP baseline.
///
/// The skyline is a demand profile lifted with raise_to, and each item goes
/// to its min_peak_position: the leftmost lowest roof is a run start, i.e. a
/// skyline breakpoint.  The skyline is a run-length Profile, so a
/// placement costs O(runs), not O(W).
[[nodiscard]] SpPacking bottom_left(const Instance& instance);

}  // namespace dsp::sp
