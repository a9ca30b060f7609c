#include "core/profile.hpp"

#include <algorithm>

#include "core/occupancy.hpp"
#include "core/segment_tree.hpp"
#include "util/check.hpp"

namespace dsp {

namespace {

class DenseProfileBackend final : public ProfileBackend {
 public:
  explicit DenseProfileBackend(Length strip_width) : occupancy_(strip_width) {}

  [[nodiscard]] std::string_view name() const override { return "dense"; }
  [[nodiscard]] Length strip_width() const override {
    return occupancy_.strip_width();
  }
  [[nodiscard]] Height peak() const override { return occupancy_.peak(); }
  [[nodiscard]] Height load_at(Length x) const override {
    return occupancy_.load_at(x);
  }
  [[nodiscard]] std::span<const Height> dense_loads() const override {
    return occupancy_.loads();
  }

  void reset() override { occupancy_.reset(); }
  void add(Length start, Length width, Height height) override {
    occupancy_.add(start, width, height);
  }
  void raise_to(Length start, Length width, Height target) override {
    occupancy_.raise_to(start, width, target);
  }

  [[nodiscard]] Height window_max(Length start, Length width) const override {
    return occupancy_.window_max(start, width);
  }
  [[nodiscard]] Length next_change(Length x) const override {
    return occupancy_.next_change(x);
  }
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const override {
    return occupancy_.first_fit(width, height, budget);
  }
  [[nodiscard]] BestPosition min_peak_position(Length width) const override {
    return occupancy_.min_peak_position(width);
  }

 private:
  StripOccupancy occupancy_;
};

class SparseProfileBackend final : public ProfileBackend {
 public:
  explicit SparseProfileBackend(Length strip_width) : tree_(strip_width) {}

  [[nodiscard]] std::string_view name() const override { return "sparse"; }
  [[nodiscard]] Length strip_width() const override { return tree_.width(); }
  [[nodiscard]] Height peak() const override { return tree_.peak(); }
  [[nodiscard]] Height load_at(Length x) const override {
    return tree_.range_max(x, x + 1);
  }

  void reset() override { tree_.reset(); }
  void add(Length start, Length width, Height height) override {
    tree_.range_add(start, start + width, height);
  }
  void raise_to(Length start, Length width, Height target) override {
    tree_.range_raise(start, start + width, target);
  }

  [[nodiscard]] Height window_max(Length start, Length width) const override {
    return tree_.range_max(start, start + width);
  }
  [[nodiscard]] Length next_change(Length x) const override {
    return tree_.next_change(x);
  }
  [[nodiscard]] std::optional<Length> first_fit(Length width, Height height,
                                                Height budget) const override {
    return tree_.first_fit(width, height, budget);
  }
  [[nodiscard]] BestPosition min_peak_position(Length width) const override {
    return tree_.min_peak_position(width);
  }

 private:
  SegmentTree tree_;
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

ProfileBackendKind resolve_backend(ProfileBackendKind kind, Length strip_width,
                                   std::size_t expected_items) {
  if (kind != ProfileBackendKind::kAuto) return kind;
  // Dense sweeps cost Θ(W) per placement, the sparse searches polylog W per
  // blocked run: prefer the tree once the items are too few to densely
  // cover the strip.  The factor 16 is measured end to end (DESIGN.md
  // §profile backends): at W = 2048, n = 100 the tree already wins.
  const auto items =
      static_cast<Length>(std::max<std::size_t>(expected_items, 1));
  const bool sparse = strip_width > 16 * items;
  return sparse ? ProfileBackendKind::kSparse : ProfileBackendKind::kDense;
}

std::unique_ptr<ProfileBackend> make_profile_backend(ProfileBackendKind kind,
                                                     Length strip_width,
                                                     std::size_t expected_items) {
  switch (resolve_backend(kind, strip_width, expected_items)) {
    case ProfileBackendKind::kSparse:
      return std::make_unique<SparseProfileBackend>(strip_width);
    case ProfileBackendKind::kDense:
      return std::make_unique<DenseProfileBackend>(strip_width);
    case ProfileBackendKind::kAuto:
      break;
  }
  DSP_REQUIRE(false, "unreachable: unresolved profile backend kind");
  return nullptr;
}

}  // namespace dsp
