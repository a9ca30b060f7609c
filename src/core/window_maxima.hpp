#pragma once

#include <span>
#include <vector>

#include "core/instance.hpp"

namespace dsp {

/// Reusable buffers for sliding_window_maxima.  StripOccupancy keeps one as
/// a member, amortizing the three W-sized buffers across every query instead
/// of allocating per call.
struct WindowMaximaScratch {
  std::vector<Height> prefix;  ///< per-block running max, left to right
  std::vector<Height> suffix;  ///< per-block running max, right to left
  std::vector<Height> out;     ///< the maxima, returned as a span
};

/// Sliding-window maxima over a dense load array: out[x] = max load over
/// [x, x + width) for every start x in [0, |load| - width], returned as a
/// span into `scratch` (valid until its next use).  Requires
/// 1 <= width <= |load|.
///
/// This is the M[x] pass behind StripOccupancy's first_fit and
/// min_peak_position (the sparse backend sweeps its constant runs instead).
/// The algorithm is the two-scan block decomposition (blocks of `width`;
/// prefix max within each block, suffix max within each block,
/// M[x] = max(suffix[x], prefix[x+width-1])): three flat sequential scans.
[[nodiscard]] std::span<const Height> sliding_window_maxima(
    std::span<const Height> load, Length width, WindowMaximaScratch& scratch);

}  // namespace dsp
