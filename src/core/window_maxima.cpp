#include "core/window_maxima.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dsp {

std::span<const Height> sliding_window_maxima(std::span<const Height> load,
                                              Length width,
                                              WindowMaximaScratch& scratch) {
  const auto w = static_cast<std::size_t>(load.size());
  const auto k = static_cast<std::size_t>(width);
  DSP_REQUIRE(width >= 1 && k <= w, "window wider than the load array");
  const std::size_t m = w - k + 1;
  if (k == 1) {
    // Degenerate window: the maxima are the loads themselves.
    scratch.out.assign(load.begin(), load.end());
    return {scratch.out.data(), m};
  }

  scratch.prefix.resize(w);
  scratch.suffix.resize(w);
  scratch.out.resize(m);
  const Height* p = load.data();
  Height* pre = scratch.prefix.data();
  Height* suf = scratch.suffix.data();

  // Blocks of k columns.  prefix[i] = max over [block_start(i), i],
  // suffix[i] = max over [i, block_end(i)); both are single sequential
  // running-max scans over the flat array.
  std::size_t in_block = 0;
  for (std::size_t i = 0; i < w; ++i) {
    pre[i] = in_block == 0 ? p[i] : std::max(pre[i - 1], p[i]);
    if (++in_block == k) in_block = 0;
  }
  for (std::size_t i = w; i-- > 0;) {
    const bool block_last = i + 1 == w || (i + 1) % k == 0;
    suf[i] = block_last ? p[i] : std::max(suf[i + 1], p[i]);
  }
  // M[x] = max(suffix[x], prefix[x + k - 1]): the window [x, x+k) is the
  // union of x's block tail and the next block's head (or exactly one block
  // when x is block-aligned, where both terms are that block's max).
  Height* out = scratch.out.data();
  for (std::size_t x = 0; x < m; ++x) out[x] = std::max(suf[x], pre[x + k - 1]);
  return {scratch.out.data(), m};
}

}  // namespace dsp
