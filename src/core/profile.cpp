#include "core/profile.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/check.hpp"

namespace dsp {

Profile::Profile(Length strip_width)
    : width_(strip_width), starts_{0}, heights_{0} {
  DSP_REQUIRE(strip_width >= 1, "strip width must be >= 1");
}

std::size_t Profile::run_of(Length x) const {
  return static_cast<std::size_t>(
             std::upper_bound(starts_.begin(), starts_.end(), x) -
             starts_.begin()) -
         1;
}

std::size_t Profile::split(Length x) {
  if (x == width_) return starts_.size();
  const std::size_t i = run_of(x);
  if (starts_[i] == x) return i;
  const Height height = heights_[i];
  const auto at = static_cast<std::ptrdiff_t>(i) + 1;
  starts_.insert(starts_.begin() + at, x);
  heights_.insert(heights_.begin() + at, height);
  return i + 1;
}

/// Splits at both ends, maps the runs in between, then merges equal
/// neighbours around the range.
template <typename F>
void Profile::update(Length start, Length width, F f) {
  DSP_REQUIRE(start >= 0 && width >= 1 && start + width <= width_,
              "update outside strip: start=" << start << " width=" << width);
  const std::size_t first = split(start);
  const std::size_t last = split(start + width);
  for (std::size_t i = first; i < last; ++i) heights_[i] = f(heights_[i]);
  // Runs [lo, hi] may now equal a neighbour: compact them in place.
  const std::size_t lo = first == 0 ? 0 : first - 1;
  const std::size_t hi = std::min(last, starts_.size() - 1);
  std::size_t out = lo;
  for (std::size_t i = lo + 1; i <= hi; ++i) {
    if (heights_[i] == heights_[out]) continue;
    ++out;
    starts_[out] = starts_[i];
    heights_[out] = heights_[i];
  }
  const auto from = static_cast<std::ptrdiff_t>(out) + 1;
  const auto to = static_cast<std::ptrdiff_t>(hi) + 1;
  starts_.erase(starts_.begin() + from, starts_.begin() + to);
  heights_.erase(heights_.begin() + from, heights_.begin() + to);
}

Height Profile::peak() const {
  return std::max<Height>(0,
                          *std::max_element(heights_.begin(), heights_.end()));
}

Height Profile::load_at(Length x) const {
  DSP_REQUIRE(0 <= x && x < width_, "load_at outside the strip");
  return heights_[run_of(x)];
}

void Profile::add(Length start, Length width, Height height) {
  update(start, width, [height](Height v) { return v + height; });
}

void Profile::raise_to(Length start, Length width, Height target) {
  update(start, width, [target](Height v) { return std::max(v, target); });
}

Length Profile::next_change(Length x) const {
  DSP_REQUIRE(0 <= x && x < width_, "next_change outside the strip");
  return run_end(run_of(x));
}

std::optional<Length> Profile::first_fit(Length width, Height height,
                                         Height budget) const {
  DSP_REQUIRE(width >= 1 && width <= width_, "item wider than strip");
  const Height threshold = budget - height;
  Length x = 0;
  for (std::size_t i = 0; i < starts_.size() && starts_[i] < x + width; ++i) {
    // A run above the threshold blocks every start that would cover it.
    if (heights_[i] > threshold) x = run_end(i);
  }
  if (x + width > width_) return std::nullopt;
  return x;
}

BestPosition Profile::min_peak_position(Length width) const {
  DSP_REQUIRE(width >= 1 && width <= width_, "item wider than strip");
  // The window max only grows as a start slides right inside a run, so
  // the leftmost minimizer is a run start.  A sliding-window maximum over
  // the runs that skips every start which cannot strictly beat `best`:
  // `window[head..]` holds the runs under the current window with
  // strictly decreasing heights, all below best.window_max.
  //  * A run at or above best.window_max is a barrier: every start whose
  //    window covers it loses, so the scan resumes at the run after it.
  //  * Every evaluated start therefore improves best, and every start up
  //    to the window's max run covers that run: resume after it.
  // Each run enters the window at most once and each evaluation pops
  // one, so a call is O(runs) in the worst case.
  std::vector<std::size_t> window;
  window.reserve(starts_.size());
  std::size_t head = 0;
  std::size_t i = 0;
  std::size_t next = 0;
  BestPosition best{0, std::numeric_limits<Height>::max()};
  while (i < starts_.size() && starts_[i] + width <= width_) {
    if (next < starts_.size() && starts_[next] < starts_[i] + width) {
      if (heights_[next] >= best.window_max) {
        window.clear();
        head = 0;
        i = ++next;
        continue;
      }
      while (window.size() > head &&
             heights_[window.back()] <= heights_[next]) {
        window.pop_back();
      }
      window.push_back(next++);
      continue;
    }
    best = {starts_[i], heights_[window[head]]};
    i = window[head++] + 1;
  }
  return best;
}

std::string_view to_string(ProfileBackendKind kind) {
  constexpr std::array<std::string_view, 3> kNames = {"dense", "sparse",
                                                      "auto"};
  return kNames.at(static_cast<std::size_t>(kind));
}

ProfileBackendKind resolve_backend(ProfileBackendKind /*kind*/,
                                   Length /*strip_width*/,
                                   std::size_t /*expected_items*/) {
  return ProfileBackendKind::kSparse;
}

}  // namespace dsp
