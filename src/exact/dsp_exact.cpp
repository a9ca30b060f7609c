#include "exact/dsp_exact.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "algo/baselines.hpp"
#include "core/bounds.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dsp::exact {

namespace {

class PeakDecisionSearch {
 public:
  PeakDecisionSearch(const Instance& instance, Height budget,
                     const Limits& limits)
      : instance_(instance),
        budget_(budget),
        limits_(limits),
        load_(static_cast<std::size_t>(instance.strip_width()), 0) {
    order_.resize(instance.size());
    std::iota(order_.begin(), order_.end(), 0);
    // Tallest (then widest) first: the most constrained items branch first.
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const Item& ia = instance_.item(a);
      const Item& ib = instance_.item(b);
      if (ia.height != ib.height) return ia.height > ib.height;
      if (ia.width != ib.width) return ia.width > ib.width;
      return a < b;
    });
    starts_.assign(instance.size(), 0);
  }

  DecisionResult run() {
    DecisionResult result;
    if (combined_lower_bound(instance_) > budget_) {
      result.status = SearchStatus::kProvedInfeasible;
      return result;
    }
    const bool found = place(0);
    result.nodes = nodes_;
    if (found) {
      result.status = SearchStatus::kProvedFeasible;
      result.packing = Packing{starts_};
    } else if (aborted_) {
      result.status = SearchStatus::kLimitReached;
    } else {
      result.status = SearchStatus::kProvedInfeasible;
    }
    return result;
  }

 private:
  bool place(std::size_t depth) {
    if (depth == order_.size()) return true;
    if (aborted_) return false;
    if (++nodes_ >= limits_.max_nodes) {
      aborted_ = true;
      return false;
    }
    if ((nodes_ & 0xFFF) == 0 && watch_.seconds() > limits_.max_seconds) {
      aborted_ = true;
      return false;
    }
    const std::size_t item_index = order_[depth];
    const Item& it = instance_.item(item_index);

    Length min_start = 0;
    Length max_start = instance_.strip_width() - it.width;
    if (depth == 0) {
      // Mirror symmetry: reflecting the strip maps packings to packings.
      max_start = (instance_.strip_width() - it.width) / 2;
    }
    // Identical items may be taken in order of non-decreasing start.
    if (depth > 0) {
      const std::size_t prev_index = order_[depth - 1];
      if (instance_.item(prev_index) == it) {
        min_start = std::max(min_start, starts_[prev_index]);
      }
    }
    for (Length x = min_start; x <= max_start; ++x) {
      const auto first = load_.begin() + x;
      if (*std::max_element(first, first + it.width) + it.height > budget_) {
        continue;
      }
      add(x, it.width, it.height);
      starts_[item_index] = x;
      if (place(depth + 1)) return true;
      add(x, it.width, -it.height);  // take it out again
      if (aborted_) return false;
    }
    return false;
  }

  /// Adds `height` to every column in [start, start+width).
  void add(Length start, Length width, Height height) {
    for (Length x = start; x < start + width; ++x) {
      load_[static_cast<std::size_t>(x)] += height;
    }
  }

  const Instance& instance_;
  Height budget_;
  Limits limits_;
  /// Per-column load of the partial packing (the strips are small: exact
  /// search is for tiny instances).
  std::vector<Height> load_;
  std::vector<std::size_t> order_;
  std::vector<Length> starts_;
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
  Stopwatch watch_;
};

}  // namespace

DecisionResult decide_peak(const Instance& instance, Height budget,
                           const Limits& limits) {
  DSP_REQUIRE(budget >= 0, "negative peak budget");
  if (instance.size() == 0) {
    DecisionResult r;
    r.status = SearchStatus::kProvedFeasible;
    r.packing = Packing{};
    return r;
  }
  return PeakDecisionSearch(instance, budget, limits).run();
}

OptResult min_peak(const Instance& instance, const Limits& limits) {
  OptResult result;
  if (instance.size() == 0) {
    result.proven_optimal = true;
    return result;
  }
  Height lo = combined_lower_bound(instance);
  algo::Scored greedy = algo::greedy_lowest_peak(instance);
  Packing incumbent = std::move(greedy.packing);
  Height hi = greedy.peak;
  bool conclusive = true;
  while (lo < hi) {
    const Height mid = lo + (hi - lo) / 2;
    const DecisionResult d = decide_peak(instance, mid, limits);
    result.nodes += d.nodes;
    if (d.status == SearchStatus::kProvedFeasible) {
      incumbent = *d.packing;
      hi = mid;
    } else if (d.status == SearchStatus::kProvedInfeasible) {
      lo = mid + 1;
    } else {
      conclusive = false;
      lo = mid + 1;  // treat as infeasible, but drop the optimality claim
    }
  }
  result.peak = hi;
  result.packing = std::move(incumbent);
  result.proven_optimal = conclusive;
  return result;
}

}  // namespace dsp::exact
