#include "approx/solve54.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

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

struct AttemptOutcome {
  Packing packing;
  Height peak = 0;
  bool within_budget = false;
  Classification cls;
  bool lp_used = false;
  std::size_t lp_configurations = 0;
  std::size_t lp_pricing_rounds = 0;
  bool lp_capped = false;
  std::size_t lp_overflow = 0;
  /// Phase-latency observations for this attempt (zero with obs off).
  std::uint64_t attempt_nanos = 0;
  std::uint64_t pricing_nanos = 0;
  std::uint64_t lp_resolve_nanos = 0;
};

/// Sorts indices by non-increasing key.
template <typename Key>
std::vector<std::size_t> sorted_desc(const std::vector<std::size_t>& indices,
                                     Key key) {
  std::vector<std::size_t> order = indices;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key(a) > key(b); });
  return order;
}

/// Gap boxes of the current profile under `ceiling`: maximal x-runs of equal
/// free capacity (Lemma 5's strips between box borders).  Merged down to
/// `max_boxes` by dropping the narrowest runs into their neighbours with the
/// smaller capacity kept (a conservative under-approximation of the space).
std::vector<GapBox> gap_boxes_of_profile(const ProfileBackend& occupancy,
                                         Height ceiling, Height min_height,
                                         std::size_t max_boxes) {
  std::vector<GapBox> boxes;
  const Length w = occupancy.strip_width();
  // Maximal runs of equal load, enumerated through the backend so the
  // sparse profile pays O(runs * log runs) rather than O(W) probes.
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

/// One attempt at the height guess h_guess (steps 3-6 of the algorithm).
/// `occupancy` must hold the all-zero profile on entry; it and
/// `fill_scratch` are reused across the bisection (reset() restores the
/// all-zero profile and the fill scratch is fully re-derived per call, so
/// reuse changes no result; both tested).
AttemptOutcome attempt(const Instance& instance, Height h_guess,
                       const Approx54Params& params, ProfileBackend& occupancy,
                       VerticalFillScratch& fill_scratch) {
  AttemptOutcome outcome;
  outcome.cls = select_parameters(instance, h_guess, params.epsilon);
  const Classification& cls = outcome.cls;
  const RoundedHeights rounding = round_heights(instance, cls);
  const Height budget =
      ceil_mul(h_guess, Fraction(5, 4) + params.epsilon);

  Packing packing;
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
    VerticalFillParams fill_params;
    fill_params.scratch = &fill_scratch;
    const VerticalFillResult fill =
        fill_vertical_items(instance, vertical, rounding, gaps, fill_params);
    outcome.lp_used = fill.lp_solved;
    outcome.lp_configurations = fill.configurations;
    outcome.lp_pricing_rounds = fill.pricing_rounds;
    outcome.lp_capped = fill.capped;
    outcome.lp_overflow = fill.overflow.size();
    outcome.pricing_nanos = fill.pricing_nanos;
    outcome.lp_resolve_nanos = fill.lp_resolve_nanos;
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
  // allowance of Lemmas 13/14 (O(eps) H').
  const Height allowance = ceil_mul(h_guess, params.epsilon * 2);
  outcome.within_budget = outcome.peak <= budget + allowance;
  outcome.packing = std::move(packing);
  return outcome;
}

}  // namespace

Approx54Result solve54(const Instance& instance, const Approx54Params& params) {
  DSP_REQUIRE(instance.size() > 0, "solve54 on empty instance");
  DSP_REQUIRE(params.epsilon > Fraction(0) && params.epsilon <= Fraction(1, 2),
              "epsilon must be in (0, 1/2]");
  Approx54Result result;
  Approx54Report& report = result.report;

  // Step 1: bounds.  The witness doubles as the fallback packing.
  report.lower_bound = combined_lower_bound(instance);
  Packing witness;
  {
    const obs::ScopedSpan span(obs::Phase::kWitness);
    witness = algo::best_of_portfolio(instance);
  }
  const Height witness_peak = peak_height(instance, witness);
  report.upper_bound = witness_peak;

  Packing best_packing = std::move(witness);
  Height best_peak = witness_peak;
  Height best_pipeline_peak = std::numeric_limits<Height>::max();

  // One profile and one fill scratch serve every attempt; kAuto resolves
  // to the run-length profile, the one a fresh construction per attempt
  // would pick.
  const std::unique_ptr<ProfileBackend> occupancy =
      make_profile_backend(ProfileBackendKind::kAuto, instance.strip_width(),
                           instance.size());
  VerticalFillScratch fill_scratch;

  // Step 2: binary search over H'.  Round 1 is the floor probe
  // H' = lower bound (lower bound <= witness peak always): success ends the
  // search there, failure raises the floor past it.  Later rounds probe the
  // midpoint; a success becomes the new ceiling, a failure the new floor.
  Height lo = report.lower_bound;
  Height hi = witness_peak;
  std::optional<AttemptOutcome> best_outcome;
  const auto probe = [&](Height guess) {
    if (report.attempts > 0) occupancy->reset();
    ++report.rounds;
    ++report.attempts;
    AttemptOutcome outcome;
    {
      const obs::ScopedSpan span(obs::Phase::kAttempt, &outcome.attempt_nanos);
      outcome = attempt(instance, guess, params, *occupancy, fill_scratch);
    }
    report.attempt_nanos += outcome.attempt_nanos;
    report.pricing_nanos += outcome.pricing_nanos;
    report.lp_resolve_nanos += outcome.lp_resolve_nanos;
    best_pipeline_peak = std::min(best_pipeline_peak, outcome.peak);
    if (outcome.peak < best_peak) {
      best_peak = outcome.peak;
      best_packing = outcome.packing;
    }
    if (outcome.within_budget) {
      report.best_guess = guess;
      hi = guess - 1;
      best_outcome = std::move(outcome);
    } else {
      lo = guess + 1;
    }
  };
  probe(std::max<Height>(1, lo));
  while (lo <= hi) {
    const obs::ScopedSpan round_span(obs::Phase::kBisectionRound);
    probe(lo + (hi - lo) / 2);
  }
  if (best_outcome) {
    const Classification& cls = best_outcome->cls;
    report.delta = cls.delta;
    report.mu = cls.mu;
    for (const Category c :
         {Category::kLarge, Category::kTall, Category::kVertical,
          Category::kMediumVertical, Category::kHorizontal, Category::kSmall,
          Category::kMedium}) {
      report.count_per_category[static_cast<int>(c)] = cls.of(c).size();
    }
    report.medium_area = cls.area_of(Category::kMedium, instance) +
                         cls.area_of(Category::kMediumVertical, instance);
    report.lp_used = best_outcome->lp_used;
    report.lp_configurations = best_outcome->lp_configurations;
    report.lp_pricing_rounds = best_outcome->lp_pricing_rounds;
    report.lp_capped = best_outcome->lp_capped;
    report.lp_overflow = best_outcome->lp_overflow;
  }
  report.pipeline_peak = best_pipeline_peak;
  report.final_peak = best_peak;
  result.packing = std::move(best_packing);
  result.peak = best_peak;
  return result;
}

}  // namespace dsp::approx
