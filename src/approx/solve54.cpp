#include "approx/solve54.hpp"

#include <algorithm>
#include <limits>

#include "algo/portfolio.hpp"
#include "approx/config_lp.hpp"
#include "core/bounds.hpp"
#include "core/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dsp::approx {

namespace {

/// Cap on the number of gap boxes handed to the Lemma-10 LP (rows stay
/// small; DESIGN.md substitution 4).
constexpr std::size_t kMaxGapBoxes = 48;

/// Sorts indices by non-increasing key.
template <typename Key>
std::vector<std::size_t> sorted_desc(const std::vector<std::size_t>& indices,
                                     Key key) {
  std::vector<std::size_t> order = indices;
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return key(a) > key(b); });
  return order;
}

/// Gap boxes of the current profile under `ceiling`: maximal x-runs of equal
/// free capacity (Lemma 5's strips between box borders).  Merged down to
/// `max_boxes` by dropping the narrowest runs into their neighbours with the
/// smaller capacity kept (a conservative under-approximation of the space).
std::vector<GapBox> gap_boxes_of_profile(const Profile& occupancy,
                                         Height ceiling, Height min_height,
                                         std::size_t max_boxes) {
  std::vector<GapBox> boxes;
  const Length w = occupancy.strip_width();
  // Maximal runs of equal load, enumerated run by run: O(runs * log runs)
  // rather than O(W) probes.
  Length run_start = 0;
  while (run_start < w) {
    const Length run_end = occupancy.next_change(run_start);
    const Height run_cap = ceiling - occupancy.load_at(run_start);
    if (run_cap >= min_height) {
      boxes.push_back(GapBox{run_start, run_end - run_start, run_cap});
    }
    run_start = run_end;
  }
  while (boxes.size() > max_boxes) {
    // Merge the narrowest box (the first on ties) into its left neighbour
    // when that one is adjacent or the box is the last, else into its right
    // neighbour; the merged box keeps the lower of the two capacities.
    std::size_t narrow = 0;
    for (std::size_t b = 1; b < boxes.size(); ++b) {
      if (boxes[b].width < boxes[narrow].width) narrow = b;
    }
    const bool merge_left =
        narrow > 0 && (narrow + 1 >= boxes.size() ||
                       boxes[narrow - 1].x + boxes[narrow - 1].width ==
                           boxes[narrow].x);
    const std::size_t into = merge_left ? narrow - 1 : narrow + 1;
    if (into >= boxes.size() ||
        boxes[std::min(into, narrow)].x + boxes[std::min(into, narrow)].width !=
            boxes[std::max(into, narrow)].x) {
      // Not adjacent: just drop the narrow box (conservative).
      boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(narrow));
      continue;
    }
    GapBox merged;
    merged.x = boxes[std::min(into, narrow)].x;
    merged.width = boxes[into].width + boxes[narrow].width;
    merged.capacity = std::min(boxes[into].capacity, boxes[narrow].capacity);
    boxes[std::min(into, narrow)] = merged;
    boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(
                                    std::max(into, narrow)));
  }
  return boxes;
}

}  // namespace

Attempt attempt(const Instance& instance, Height h_guess,
                const Fraction& epsilon) {
  DSP_REQUIRE(h_guess >= 1, "attempt needs a height guess >= 1");
  DSP_REQUIRE(epsilon > Fraction(0) && epsilon <= Fraction(1, 2),
              "epsilon must be in (0, 1/2]");
  Attempt outcome;
  outcome.cls = select_parameters(instance, h_guess, epsilon);
  const Classification& cls = outcome.cls;
  const RoundedHeights rounding = round_heights(instance, cls);
  const Height budget = ceil_mul(h_guess, Fraction(5, 4) + epsilon);

  Profile occupancy(instance.strip_width());
  Packing& packing = outcome.packing;
  packing.start.assign(instance.size(), -1);
  const auto place = [&](std::size_t i, Length x) {
    packing.start[i] = x;
    occupancy.add(x, instance.item(i).width, instance.item(i).height);
  };
  // First fit under the budget; falls back to the peak-minimizing position
  // (the packing stays feasible; only the budget check may fail).
  const auto place_first_fit = [&](std::size_t i) {
    const Item& it = instance.item(i);
    if (const auto x = occupancy.first_fit(it.width, it.height, budget)) {
      place(i, *x);
    } else {
      place(i, occupancy.min_peak_position(it.width).start);
    }
  };

  // Step 4 — skeleton: large and tall items, tallest (rounded) first.
  std::vector<std::size_t> skeleton = cls.of(Category::kLarge);
  {
    const std::vector<std::size_t> tall = cls.of(Category::kTall);
    skeleton.insert(skeleton.end(), tall.begin(), tall.end());
  }
  for (const std::size_t i : sorted_desc(skeleton, [&](std::size_t k) {
         return rounding.rounded[k];
       })) {
    place_first_fit(i);
  }

  // Step 5a — vertical items via the Lemma-10 configuration LP.
  const std::vector<std::size_t> vertical = cls.of(Category::kVertical);
  if (!vertical.empty()) {
    Height min_vertical = instance.item(vertical.front()).height;
    for (const std::size_t i : vertical) {
      min_vertical = std::min(min_vertical, instance.item(i).height);
    }
    const std::vector<GapBox> gaps = gap_boxes_of_profile(
        occupancy, budget, min_vertical, kMaxGapBoxes);
    outcome.fill = fill_vertical_items(instance, vertical, rounding, gaps);
    const VerticalFillResult& fill = outcome.fill;
    for (std::size_t k = 0; k < vertical.size(); ++k) {
      if (fill.start[k] >= 0) place(vertical[k], fill.start[k]);
    }
    // Overflow items: the extra boxes of Lemma 10, realized as first fit.
    for (const std::size_t k : fill.overflow) place_first_fit(vertical[k]);
  }

  // Step 5b — horizontal items by non-increasing width (the stacking order
  // of Lemma 11's width rounding).
  for (const std::size_t i :
       sorted_desc(cls.of(Category::kHorizontal),
                   [&](std::size_t k) { return instance.item(k).width; })) {
    place_first_fit(i);
  }

  // Step 5c — small items into the remaining gaps (Lemma 13).
  for (const std::size_t i :
       sorted_desc(cls.of(Category::kSmall),
                   [&](std::size_t k) { return instance.item(k).area(); })) {
    place_first_fit(i);
  }

  // Step 6 — discarded medium items on top (Lemma 14: NFDH order, wide
  // first; their total area is small by Lemma 2).
  std::vector<std::size_t> medium = cls.of(Category::kMedium);
  {
    const std::vector<std::size_t> mv = cls.of(Category::kMediumVertical);
    medium.insert(medium.end(), mv.begin(), mv.end());
  }
  for (const std::size_t i : sorted_desc(medium, [&](std::size_t k) {
         return instance.item(k).width;
       })) {
    const Item& it = instance.item(i);
    // Peak-minimizing placement: equivalent to stacking in the flattest
    // region; allowed to exceed the budget by the small medium area.
    place(i, occupancy.min_peak_position(it.width).start);
  }

  outcome.peak = occupancy.peak();
  // Success criterion: everything within (5/4 + eps) H' plus the medium
  // allowance of Lemmas 13/14 (O(eps) H').  Written as a difference: the
  // ingest cap admits H' up to 2^62 (W = 1), where budget + allowance
  // (up to 11/4 H') would pass INT64_MAX.
  const Height allowance = ceil_mul(h_guess, epsilon * 2);
  outcome.within_budget = outcome.peak - budget <= allowance;
  return outcome;
}

Bisection bisect(const Instance& instance, Height lower, Height upper,
                 const Fraction& epsilon) {
  DSP_REQUIRE(lower <= upper, "bisect needs lower <= upper");
  Bisection search;
  search.peak = std::numeric_limits<Height>::max();
  // Round 1 is the floor probe H' = lower: success ends the search there,
  // failure raises the floor past it.  Later rounds probe the midpoint; a
  // success becomes the new ceiling, a failure the new floor.
  Height lo = lower;
  Height hi = upper;
  const auto probe = [&](Height guess) {
    ++search.attempts;
    Attempt tried;
    {
      const obs::ScopedSpan span(obs::Phase::kAttempt, &search.attempt_nanos);
      tried = attempt(instance, guess, epsilon);
    }
    search.pricing_nanos += tried.fill.pricing_nanos;
    search.lp_resolve_nanos += tried.fill.lp_resolve_nanos;
    if (tried.peak < search.peak) {
      search.peak = tried.peak;
      search.packing = tried.packing;
    }
    if (tried.within_budget) {
      hi = guess - 1;
      search.accepted = std::move(tried);
    } else {
      lo = guess + 1;
    }
  };
  probe(std::max<Height>(1, lo));
  while (lo <= hi) probe(lo + (hi - lo) / 2);
  return search;
}

Approx54Result solve54(const Instance& instance, const Approx54Params& params) {
  DSP_REQUIRE(instance.size() > 0, "solve54 on empty instance");
  DSP_REQUIRE(params.epsilon > Fraction(0) && params.epsilon <= Fraction(1, 2),
              "epsilon must be in (0, 1/2]");
  Approx54Result result;
  Approx54Report& report = result.report;

  // Step 1: bounds.  The witness doubles as the fallback packing.
  report.lower_bound = combined_lower_bound(instance);
  {
    const obs::ScopedSpan span(obs::Phase::kWitness);
    algo::Scored witness = algo::best_of_portfolio(
        instance, report.lower_bound, &result.winner);
    result.packing = std::move(witness.packing);
    result.peak = witness.peak;
  }
  report.upper_bound = result.peak;
  report.pipeline_peak = result.peak;

  // Step 2 only when the witness does not already prove Theorem 5: LB <= OPT,
  // so a witness peak <= floor((5/4 + eps) LB) is within the bound and is
  // returned without an attempt (a witness at the lower bound is the
  // special case UB == LB).  Written as a difference, like the acceptance
  // test, so that no sum passes INT64_MAX.
  if (report.upper_bound - report.lower_bound <=
      floor_mul(report.lower_bound, Fraction(1, 4) + params.epsilon)) {
    return result;
  }
  Bisection search =
      bisect(instance, report.lower_bound, report.upper_bound, params.epsilon);
  report.pipeline_peak = search.peak;
  report.attempts = search.attempts;
  report.rounds = search.attempts;
  report.attempt_nanos = search.attempt_nanos;
  report.pricing_nanos = search.pricing_nanos;
  report.lp_resolve_nanos = search.lp_resolve_nanos;
  if (search.accepted) {
    report.lp_used = search.accepted->fill.lp_solved;
    report.lp_pricing_rounds = search.accepted->fill.pricing_rounds;
  }
  if (search.peak < result.peak) {
    result.packing = std::move(search.packing);
    result.peak = search.peak;
    result.winner = "pipeline";
  }
  return result;
}

}  // namespace dsp::approx
