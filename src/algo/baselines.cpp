#include "algo/baselines.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "core/profile.hpp"
#include "sp/bottom_left.hpp"
#include "sp/shelf.hpp"
#include "sp/sleator.hpp"
#include "util/check.hpp"

namespace dsp::algo {

namespace {

std::vector<std::size_t> ordered_indices(const Instance& instance,
                                         ItemOrder order) {
  std::vector<std::size_t> idx(instance.size());
  std::iota(idx.begin(), idx.end(), 0);
  const auto by = [&](auto key) {
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return key(instance.item(a)) > key(instance.item(b));
                     });
  };
  switch (order) {
    case ItemOrder::kDecreasingHeight:
      by([](const Item& it) { return it.height; });
      break;
    case ItemOrder::kDecreasingArea:
      by([](const Item& it) { return it.area(); });
      break;
    case ItemOrder::kDecreasingWidth:
      by([](const Item& it) { return it.width; });
      break;
  }
  return idx;
}

/// First fit under `budget` in the given item order (one probe of the
/// search; the order is sorted once per search, not per probe).
std::optional<Scored> first_fit_in_order(const Instance& instance,
                                         const std::vector<std::size_t>& order,
                                         Height budget) {
  Profile profile(instance.strip_width());
  Packing packing;
  packing.start.resize(instance.size());
  for (const std::size_t i : order) {
    const Item& it = instance.item(i);
    const auto pos = profile.first_fit(it.width, it.height, budget);
    if (!pos.has_value()) return std::nullopt;
    packing.start[i] = *pos;
    profile.add(*pos, it.width, it.height);
  }
  return Scored{std::move(packing), profile.peak()};
}

}  // namespace

Scored greedy_lowest_peak(const Instance& instance, ItemOrder order) {
  Profile profile(instance.strip_width());
  Packing packing;
  packing.start.resize(instance.size());
  for (const std::size_t i : ordered_indices(instance, order)) {
    const Item& it = instance.item(i);
    const auto best = profile.min_peak_position(it.width);
    packing.start[i] = best.start;
    profile.add(best.start, it.width, it.height);
  }
  return {std::move(packing), profile.peak()};
}

std::optional<Scored> first_fit_with_budget(const Instance& instance,
                                            Height budget) {
  return first_fit_in_order(
      instance, ordered_indices(instance, ItemOrder::kDecreasingHeight),
      budget);
}

Scored first_fit_search(const Instance& instance, Height lower_bound,
                        const Scored& greedy) {
  Height lo = lower_bound;
  Height hi = greedy.peak;
  // Invariant: a feasible packing is known for budget hi (the greedy one).
  // Every probe that succeeds peaks at <= its budget < the greedy peak.
  std::optional<Scored> best;
  const std::vector<std::size_t> order =
      ordered_indices(instance, ItemOrder::kDecreasingHeight);
  while (lo < hi) {
    const Height mid = lo + (hi - lo) / 2;
    if (auto packing = first_fit_in_order(instance, order, mid)) {
      best = std::move(packing);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (best) return std::move(*best);
  return greedy;
}

Packing equal_width_folding(const Instance& instance) {
  DSP_REQUIRE(instance.size() > 0, "equal_width_folding on empty instance");
  const Length w = instance.item(0).width;
  for (const Item& it : instance.items()) {
    DSP_REQUIRE(it.width == w, "equal_width_folding requires uniform widths");
  }
  const auto columns = static_cast<std::size_t>(instance.strip_width() / w);
  // LPT assignment: tallest first onto the lowest column.
  std::vector<Height> column_load(columns, 0);
  Packing packing;
  packing.start.resize(instance.size());
  for (const std::size_t i :
       ordered_indices(instance, ItemOrder::kDecreasingHeight)) {
    const auto c = static_cast<std::size_t>(
        std::min_element(column_load.begin(), column_load.end()) -
        column_load.begin());
    packing.start[i] = static_cast<Length>(c) * w;
    column_load[c] += instance.item(i).height;
  }
  return packing;
}

Packing nfdh_dsp(const Instance& instance) {
  return sp::as_dsp(sp::nfdh(instance));
}

Packing ffdh_dsp(const Instance& instance) {
  return sp::as_dsp(sp::ffdh(instance));
}

Packing sleator_dsp(const Instance& instance) {
  return sp::as_dsp(sp::sleator(instance));
}

Packing bottom_left_dsp(const Instance& instance) {
  return sp::as_dsp(sp::bottom_left(instance));
}

}  // namespace dsp::algo
