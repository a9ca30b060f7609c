#include "augment/augment.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <numeric>
#include <utility>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "transform/transform.hpp"
#include "util/check.hpp"

namespace dsp::augment {

namespace {

/// Black-box "PTS makespan solver" through the Theorem-1 duality: find a
/// small strip width T such that the items pack with peak <= m, by binary
/// search over T with the portfolio as the packer.  Returns the packing and
/// its width.
struct MakespanSolution {
  Packing packing;
  Length width = 0;
};

MakespanSolution makespan_via_duality(const std::vector<Item>& items, Height m,
                                      Length width_cap) {
  // Feasible fallback: all jobs in sequence (width = sum of widths).
  Length lo = 1;
  Length hi = 0;
  for (const Item& it : items) {
    lo = std::max(lo, it.width);
    hi += it.width;
  }
  hi = std::min(hi, std::max(width_cap, lo));
  MakespanSolution best;
  best.width = 0;
  while (lo <= hi) {
    const Length mid = lo + (hi - lo) / 2;
    const Instance inst(mid, items);
    algo::Scored packed =
        algo::best_of_portfolio(inst, combined_lower_bound(inst));
    if (packed.peak <= m) {
      best.packing = std::move(packed.packing);
      best.width = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  if (best.width == 0) {
    // Serial schedule: always feasible for m >= max height.
    best.width = 0;
    best.packing.start.clear();
    for (const Item& it : items) {
      best.packing.start.push_back(best.width);
      best.width += it.width;
    }
  }
  return best;
}

}  // namespace

DspWidthAugmentation augment_dsp_width(const Instance& instance,
                                       const Fraction& epsilon) {
  DSP_REQUIRE(epsilon > Fraction(0), "epsilon must be positive");
  DSP_REQUIRE(instance.size() > 0, "empty instance");
  const Length width_budget =
      ceil_mul(instance.strip_width(), Fraction(3, 2) + epsilon);
  std::vector<Item> items(instance.items().begin(), instance.items().end());

  DspWidthAugmentation result;
  result.height_floor = combined_lower_bound(instance);
  // Upper seed: the witness height at the original width is always accepted
  // (its width is W <= budget).
  algo::Scored witness =
      algo::best_of_portfolio(instance, result.height_floor);
  Height hi = witness.peak;
  Height lo = instance.max_height();
  result.packing = std::move(witness.packing);
  result.height = hi;
  result.augmented_width = instance.strip_width();
  while (lo <= hi) {
    const Height mid = lo + (hi - lo) / 2;
    ++result.probes;
    const MakespanSolution sol =
        makespan_via_duality(items, mid, width_budget);
    if (sol.width <= width_budget) {
      result.packing = sol.packing;
      result.height = mid;
      result.augmented_width = sol.width;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return result;
}

namespace {

PtsMachineAugmentation augment_pts_machines(
    const pts::PtsInstance& instance, const Fraction& factor,
    const std::function<algo::Scored(const Instance&)>& peak_solver) {
  DSP_REQUIRE(instance.size() > 0, "empty instance");
  const Height machine_budget =
      ceil_mul(instance.num_machines(), factor);

  PtsMachineAugmentation result;
  result.makespan_floor =
      std::max(instance.work_lower_bound(), instance.max_time());
  pts::Time lo = result.makespan_floor;
  pts::Time hi = 0;
  for (const pts::Job& j : instance.jobs()) hi += j.time;

  // Remember the best accepted (T, packing) pair.
  std::optional<std::pair<pts::Time, Packing>> accepted;
  while (lo <= hi) {
    const pts::Time mid = lo + (hi - lo) / 2;
    ++result.probes;
    const Instance dsp_instance =
        transform::pts_to_dsp_instance(instance, mid);
    algo::Scored solved = peak_solver(dsp_instance);
    if (solved.peak <= machine_budget) {
      accepted = {mid, std::move(solved.packing)};
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  DSP_REQUIRE(accepted.has_value(),
              "augmentation failed even at the serial makespan");
  const auto& [T, packing] = *accepted;
  const Instance dsp_instance = transform::pts_to_dsp_instance(instance, T);
  const int used = std::max<int>(
      1, static_cast<int>(peak_height(dsp_instance, packing)));
  auto schedule = transform::packing_to_schedule(dsp_instance, packing, used);
  DSP_REQUIRE(schedule.has_value(), "internal: packing failed the sweep");
  result.schedule = std::move(*schedule);
  result.makespan = T;
  result.augmented_machines = used;
  return result;
}

}  // namespace

PtsMachineAugmentation augment_pts_machines_53(const pts::PtsInstance& instance,
                                               const Fraction& epsilon) {
  return augment_pts_machines(
      instance, Fraction(5, 3) + epsilon,
      [](const Instance& inst) {
        return algo::best_of_portfolio(inst, combined_lower_bound(inst));
      });
}

PtsMachineAugmentation augment_pts_machines_54(const pts::PtsInstance& instance,
                                               const Fraction& epsilon) {
  return augment_pts_machines(
      instance, Fraction(5, 4) + epsilon,
      [&epsilon](const Instance& inst) {
        approx::Approx54Result result =
            approx::solve54(inst, {.epsilon = epsilon});
        return algo::Scored{std::move(result.packing), result.peak};
      });
}

}  // namespace dsp::augment
