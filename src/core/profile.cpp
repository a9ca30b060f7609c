#include "core/profile.hpp"

#include <algorithm>
#include <vector>

#include "core/occupancy.hpp"
#include "util/check.hpp"

namespace dsp {

namespace {

/// Run-length profile: the load is heights_[i] on [starts_[i], starts_[i+1])
/// (the last run ends at W), starts_[0] == 0 and adjacent runs always differ
/// in height.  n placements leave at most 2n + 1 runs, so every operation is
/// O(runs) whatever W is, and the state never grows with the strip.
class SparseProfileBackend final : public ProfileBackend {
 public:
  explicit SparseProfileBackend(Length strip_width) : width_(strip_width) {
    DSP_REQUIRE(strip_width >= 1, "strip width must be >= 1");
    reset();
  }

  [[nodiscard]] Length strip_width() const override { return width_; }
  [[nodiscard]] Height peak() const override {
    return std::max<Height>(
        0, *std::max_element(heights_.begin(), heights_.end()));
  }
  [[nodiscard]] Height load_at(Length x) const override {
    DSP_REQUIRE(0 <= x && x < width_, "load_at outside the strip");
    return heights_[run_of(x)];
  }

  void reset() override {
    starts_.assign(1, 0);
    heights_.assign(1, 0);
  }
  void add(Length start, Length width, Height height) override {
    update(start, width, [height](Height v) { return v + height; });
  }
  void raise_to(Length start, Length width, Height target) override {
    update(start, width, [target](Height v) { return std::max(v, target); });
  }

  [[nodiscard]] Length next_change(Length x) const override {
    DSP_REQUIRE(0 <= x && x < width_, "next_change outside the strip");
    return run_end(run_of(x));
  }

  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const override {
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

  [[nodiscard]] BestPosition min_peak_position(Length width) const override {
    DSP_REQUIRE(width >= 1 && width <= width_, "item wider than strip");
    // The window max only grows as a start slides right inside a run, so
    // the leftmost minimizer is a run start.  One sliding-window maximum
    // over the runs: `window[head..]` holds the runs under the current
    // window with strictly decreasing heights.
    std::vector<std::size_t> window;
    window.reserve(starts_.size());
    std::size_t head = 0;
    std::size_t next = 0;
    BestPosition best{0, 0};
    for (std::size_t i = 0; i < starts_.size() && starts_[i] + width <= width_;
         ++i) {
      for (; next < starts_.size() && starts_[next] < starts_[i] + width;
           ++next) {
        while (window.size() > head &&
               heights_[window.back()] <= heights_[next]) {
          window.pop_back();
        }
        window.push_back(next);
      }
      if (window[head] < i) ++head;
      const Height m = heights_[window[head]];
      if (i == 0 || m < best.window_max) best = {starts_[i], m};
    }
    return best;
  }

 private:
  /// Index of the run holding column x.
  [[nodiscard]] std::size_t run_of(Length x) const {
    return static_cast<std::size_t>(
               std::upper_bound(starts_.begin(), starts_.end(), x) -
               starts_.begin()) -
           1;
  }
  [[nodiscard]] Length run_end(std::size_t i) const {
    return i + 1 < starts_.size() ? starts_[i + 1] : width_;
  }

  /// Makes x a run start (x < W) and returns its run's index; W maps to the
  /// run count.
  std::size_t split(Length x) {
    if (x == width_) return starts_.size();
    const std::size_t i = run_of(x);
    if (starts_[i] == x) return i;
    const Height height = heights_[i];
    const auto at = static_cast<std::ptrdiff_t>(i) + 1;
    starts_.insert(starts_.begin() + at, x);
    heights_.insert(heights_.begin() + at, height);
    return i + 1;
  }

  /// Applies `f` to the load over [start, start+width): split at both ends,
  /// map the runs in between, then merge equal neighbours around the range.
  template <typename F>
  void update(Length start, Length width, F f) {
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

  Length width_;
  std::vector<Length> starts_;
  std::vector<Height> heights_;
};

}  // namespace

std::string_view to_string(ProfileBackendKind kind) {
  switch (kind) {
    case ProfileBackendKind::kDense:
      return "dense";
    case ProfileBackendKind::kSparse:
      return "sparse";
    case ProfileBackendKind::kAuto:
      return "auto";
  }
  return "unknown";
}

ProfileBackendKind resolve_backend(ProfileBackendKind kind,
                                   Length /*strip_width*/,
                                   std::size_t /*expected_items*/) {
  // The run-length profile costs O(runs) per operation, at most 2n + 1
  // runs, against O(W) columns for the dense one.  Measured, it serves
  // every e2ebench solve-cold cell (W <= 2048, n in {100, 400}) faster;
  // dense is ahead only on strips of a few dozen columns, by at most
  // ~1.4x and well under 2 ms (DESIGN.md, the profile-backend layer).
  return kind == ProfileBackendKind::kAuto ? ProfileBackendKind::kSparse
                                           : kind;
}

std::unique_ptr<ProfileBackend> make_profile_backend(ProfileBackendKind kind,
                                                     Length strip_width,
                                                     std::size_t expected_items) {
  switch (resolve_backend(kind, strip_width, expected_items)) {
    case ProfileBackendKind::kSparse:
      return std::make_unique<SparseProfileBackend>(strip_width);
    case ProfileBackendKind::kDense:
      return std::make_unique<StripOccupancy>(strip_width);
    case ProfileBackendKind::kAuto:
      break;
  }
  DSP_REQUIRE(false, "unreachable: unresolved profile backend kind");
  return nullptr;
}

}  // namespace dsp
