#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace dsp {

/// A DSP solution: the placement function lambda assigning each item a start
/// position.  Because items may be sliced vertically, the start positions
/// fully determine the solution — the peak is a function of the demand
/// profile alone (paper §1).
struct Packing {
  std::vector<Length> start;

  [[nodiscard]] bool operator==(const Packing&) const = default;
};

/// The demand profile of a packing: load(x) = total height of items covering
/// column x, for x in [0, W).
class LoadProfile {
 public:
  /// Builds the profile of `packing` for `instance`.  Throws InvalidInput if
  /// the packing is structurally invalid (wrong size, item out of strip).
  LoadProfile(const Instance& instance, const Packing& packing);

  [[nodiscard]] Height peak() const { return peak_; }
  [[nodiscard]] Height load_at(Length x) const { return load_.at(static_cast<std::size_t>(x)); }
  [[nodiscard]] std::span<const Height> loads() const { return load_; }
  [[nodiscard]] Length width() const { return static_cast<Length>(load_.size()); }

 private:
  std::vector<Height> load_;
  Height peak_ = 0;
};

/// Checks structural feasibility: one start per item, every item fully inside
/// the strip.  Returns an explanation for the first violation found.
[[nodiscard]] std::optional<std::string> feasibility_error(const Instance& instance,
                                                           const Packing& packing);

/// Throwing form of feasibility_error: InvalidInput carrying the explanation.
void validate_packing(const Instance& instance, const Packing& packing);

/// Peak height of a packing (paper's objective H).  Throws on invalid input.
/// Allocates no W-sized profile where resolve_backend(kAuto, W, n) picks
/// the sparse backend.
[[nodiscard]] Height peak_height(const Instance& instance, const Packing& packing);

}  // namespace dsp
