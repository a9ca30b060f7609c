#pragma once

#include "core/profile.hpp"
#include "sp/sp.hpp"

namespace dsp::sp {

/// Bottom-left skyline heuristic: items in non-increasing height order are
/// placed at the lowest (then leftmost) skyline position that fits.  Not a
/// bounded-ratio algorithm, but the strongest practical SP comparator in the
/// integrality-gap experiments (E1) and a second SP-as-DSP baseline.
///
/// The skyline is stored in a demand-profile backend: dense columns, or
/// constant runs for wide sparse strips (the one-argument overload lets
/// kAuto pick from the instance shape).  Both produce the identical packing.
[[nodiscard]] SpPacking bottom_left(const Instance& instance);
[[nodiscard]] SpPacking bottom_left(const Instance& instance,
                                    ProfileBackendKind backend);

}  // namespace dsp::sp
