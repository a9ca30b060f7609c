#include "approx/config_lp.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "lp/simplex.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dsp::approx {

namespace {

/// One master-LP column: configuration `config` run in box `box`.
struct MasterColumn {
  std::size_t box;
  Config config;
};

/// Enumerates multisets of heights with total <= capacity (including the
/// empty configuration), capped at max_configs.  Sets *capped when the cap
/// trimmed the enumeration.
std::vector<Config> enumerate_configs(const std::vector<Height>& heights,
                                      Height capacity, std::size_t max_configs,
                                      bool* capped) {
  std::vector<Config> configs;
  Config current(heights.size(), 0);
  // DFS over classes; heights sorted descending keeps recursion shallow.
  auto dfs = [&](auto&& self, std::size_t cls, Height remaining) -> void {
    if (configs.size() >= max_configs) {
      *capped = true;  // a pending branch was cut off
      return;
    }
    if (cls == heights.size()) {
      configs.push_back(current);
      return;
    }
    const int max_count =
        heights[cls] > 0 ? static_cast<int>(remaining / heights[cls]) : 0;
    // Try denser stacks first so truncation keeps the useful columns.
    for (int c = max_count; c >= 0; --c) {
      current[cls] = c;
      self(self, cls + 1, remaining - static_cast<Height>(c) * heights[cls]);
      if (configs.size() >= max_configs) {
        // Breaking with c > 0 abandons the sparser stacks of this class;
        // if every level breaks at c == 0 the DFS in fact completed.
        if (c > 0) *capped = true;
        break;
      }
    }
    current[cls] = 0;
  };
  dfs(dfs, 0, capacity);
  return configs;
}

/// Shared setup: distinct rounded heights (descending), per-class total true
/// width, and the class of each item position.
struct ClassSetup {
  std::vector<Height> heights;
  std::vector<double> class_width;
  std::vector<std::size_t> item_class;  ///< per position in `items`
};

ClassSetup build_classes(const Instance& instance,
                         const std::vector<std::size_t>& items,
                         const RoundedHeights& rounding) {
  ClassSetup setup;
  for (const std::size_t i : items) setup.heights.push_back(rounding.rounded[i]);
  std::sort(setup.heights.begin(), setup.heights.end(), std::greater<>());
  setup.heights.erase(std::unique(setup.heights.begin(), setup.heights.end()),
                      setup.heights.end());
  setup.class_width.assign(setup.heights.size(), 0.0);
  setup.item_class.reserve(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Height h = rounding.rounded[items[k]];
    const auto cls = static_cast<std::size_t>(
        std::lower_bound(setup.heights.begin(), setup.heights.end(), h,
                         std::greater<>()) -
        setup.heights.begin());
    setup.item_class.push_back(cls);
    setup.class_width[cls] +=
        static_cast<double>(instance.item(items[k]).width);
  }
  return setup;
}

/// Greedy integral filling of the basic solution: per box, lay the chosen
/// configurations left to right; each lane (height class within a
/// configuration) consumes items of its class until the lane is full, the
/// first item not fitting entirely overflows (Lemma 10's extra boxes).
/// `x` may be shorter than `columns` (columns generated after the final
/// re-solve carry no mass).
void realize_solution(const Instance& instance,
                      const std::vector<std::size_t>& items,
                      const ClassSetup& setup, const std::vector<GapBox>& boxes,
                      const std::vector<MasterColumn>& columns,
                      const std::vector<double>& x,
                      VerticalFillResult* result) {
  std::vector<std::vector<std::size_t>> queue(setup.heights.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    queue[setup.item_class[k]].push_back(k);
  }
  // Queues pop from the back; sort ascending so wider items are placed
  // first, keeping the overflow items narrow.
  for (auto& q : queue) {
    std::sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      return instance.item(items[a]).width < instance.item(items[b]).width;
    });
  }
  std::vector<Length> cursor(boxes.size());
  for (std::size_t b = 0; b < boxes.size(); ++b) cursor[b] = boxes[b].x;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] <= 1e-9) continue;
    ++result->nonzero_configs;
    const MasterColumn& col = columns[j];
    const GapBox& box = boxes[col.box];
    const Config& config = col.config;
    // Floor, with an epsilon so a basic value of 1 - 1e-15 still yields its
    // full lane (genuinely fractional mass stays in the overflow path).
    const auto seg_width = static_cast<Length>(x[j] + 1e-6);
    const Length seg_begin = std::min(cursor[col.box], box.x + box.width);
    const Length seg_end = std::min(seg_begin + seg_width, box.x + box.width);
    cursor[col.box] = seg_end;
    if (seg_end <= seg_begin) continue;
    for (std::size_t h = 0; h < setup.heights.size(); ++h) {
      for (int lane = 0; lane < config[h]; ++lane) {
        Length at = seg_begin;
        while (at < seg_end && !queue[h].empty()) {
          const std::size_t k = queue[h].back();
          const Length w = instance.item(items[k]).width;
          queue[h].pop_back();
          if (at + w > seg_end) {
            // The lemma's "last item overlaps the configuration border":
            // it moves to an extra box and the lane is complete.
            result->overflow.push_back(k);
            break;
          }
          result->start[k] = at;
          at += w;
        }
      }
    }
  }
  for (const auto& q : queue) {
    for (const std::size_t k : q) result->overflow.push_back(k);
  }
}

/// Shared right-hand side: box widths, then class widths.
std::vector<double> master_rhs(const std::vector<GapBox>& boxes,
                               const ClassSetup& setup) {
  std::vector<double> rhs(boxes.size() + setup.heights.size(), 0.0);
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    rhs[b] = static_cast<double>(boxes[b].width);
  }
  for (std::size_t h = 0; h < setup.heights.size(); ++h) {
    rhs[boxes.size() + h] = setup.class_width[h];
  }
  return rhs;
}

/// Reference oracle: enumerate-then-solve over the full (capped) column set.
void run_dense(const Instance& instance, const std::vector<std::size_t>& items,
               const ClassSetup& setup, const std::vector<GapBox>& boxes,
               const VerticalFillParams& params, VerticalFillResult* result) {
  std::map<Height, std::vector<Config>> configs_by_capacity;
  const std::size_t per_capacity = std::max<std::size_t>(
      16, params.max_configs / std::max<std::size_t>(1, boxes.size()));
  for (const GapBox& box : boxes) {
    if (!configs_by_capacity.contains(box.capacity)) {
      configs_by_capacity[box.capacity] = enumerate_configs(
          setup.heights, box.capacity, per_capacity, &result->capped);
    }
  }

  // Build the LP: one column per (box, config) pair.
  std::vector<MasterColumn> columns;
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    for (const Config& config : configs_by_capacity[boxes[b].capacity]) {
      columns.push_back(MasterColumn{b, config});
    }
  }
  result->configurations = columns.size();

  const std::size_t rows = boxes.size() + setup.heights.size();
  lp::LpProblem problem;
  problem.a.assign(rows, std::vector<double>(columns.size(), 0.0));
  problem.b = master_rhs(boxes, setup);
  problem.c.assign(columns.size(), 0.0);
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const MasterColumn& col = columns[j];
    problem.a[col.box][j] = 1.0;
    Height used = 0;
    for (std::size_t h = 0; h < setup.heights.size(); ++h) {
      problem.a[boxes.size() + h][j] = static_cast<double>(col.config[h]);
      used += static_cast<Height>(col.config[h]) * setup.heights[h];
    }
    // Objective: prefer tight configurations (minimize wasted capacity).
    problem.c[j] = static_cast<double>(boxes[col.box].capacity - used);
  }

  const lp::LpSolution solution = [&] {
    const obs::ScopedSpan span(obs::Phase::kLpResolve,
                               &result->lp_resolve_nanos);
    return lp::solve(problem);
  }();
  result->lp_pivots = solution.pivots;
  if (solution.status != lp::LpStatus::kOptimal) return;
  result->lp_solved = true;
  result->lp_objective = solution.objective;
  realize_solution(instance, items, setup, boxes, columns, solution.x, result);
}

/// Column generation: seed with the empty configurations, then iterate
/// re-solve -> price until no improving column exists.  While the restricted
/// master is infeasible, pricing runs against the Farkas certificate (find a
/// column with y^T a > 0); once feasible, against the reduced cost
/// (find a column with c_j - y^T a_j < 0).  Both reduce to the same
/// knapsack over height classes, one per distinct box capacity.
void run_column_generation(const Instance& instance,
                           const std::vector<std::size_t>& items,
                           const ClassSetup& setup,
                           const std::vector<GapBox>& boxes,
                           const VerticalFillParams& params,
                           VerticalFillResult* result) {
  const std::size_t nb = boxes.size();
  const std::size_t nh = setup.heights.size();
  lp::ColumnLp master(master_rhs(boxes, setup));

  // Every (box, config) pair enters the master at most once.
  std::set<std::pair<std::size_t, Config>> seen;
  std::vector<MasterColumn> columns;
  const auto add_column = [&](std::size_t b, const Config& config) {
    if (!seen.emplace(b, config).second) return false;
    std::vector<double> entries(nb + nh, 0.0);
    entries[b] = 1.0;
    Height used = 0;
    for (std::size_t h = 0; h < nh; ++h) {
      entries[nb + h] = static_cast<double>(config[h]);
      used += static_cast<Height>(config[h]) * setup.heights[h];
    }
    master.add_column(entries,
                      static_cast<double>(boxes[b].capacity - used));
    columns.push_back(MasterColumn{b, config});
    return true;
  };
  const Config empty_config(nh, 0);
  for (std::size_t b = 0; b < nb; ++b) add_column(b, empty_config);

  // Distinct capacities (ascending) and their boxes (ascending): the fixed
  // order in which columns are priced and added, so the generated column
  // sequence — and hence the realized packing — is a function of the input.
  std::map<Height, std::vector<std::size_t>> boxes_by_capacity;
  for (std::size_t b = 0; b < nb; ++b) {
    boxes_by_capacity[boxes[b].capacity].push_back(b);
  }

  for (;;) {
    // One span per CG round (resolve + price + add), with the LP resolve
    // nested inside — the trace shows exactly where a round's time went.
    const obs::ScopedSpan round_span(obs::Phase::kPricingRound,
                                     &result->pricing_nanos);
    ++result->pricing_rounds;
    const lp::LpSolution& sol = [&]() -> const lp::LpSolution& {
      const obs::ScopedSpan span(obs::Phase::kLpResolve,
                                 &result->lp_resolve_nanos);
      return master.resolve();
    }();
    result->lp_pivots += sol.pivots;
    if (sol.status == lp::LpStatus::kUnbounded) break;  // costs >= 0: never
    const bool feasible = sol.status == lp::LpStatus::kOptimal;
    if (!feasible && master.farkas().empty()) {
      // Infeasible without a certificate = phase-1 numerical failure, not a
      // proof; report it as a capped (inconclusive) run rather than letting
      // the silent first-fit fallback masquerade as true infeasibility.
      result->capped = true;
      break;
    }
    const std::vector<double>& y = feasible ? sol.duals : master.farkas();
    std::vector<double> values(nh);
    for (std::size_t h = 0; h < nh; ++h) {
      values[h] = feasible ? static_cast<double>(setup.heights[h]) + y[nb + h]
                           : y[nb + h];
    }
    bool added = false;
    for (const auto& [capacity, box_list] : boxes_by_capacity) {
      const PricedConfig price =
          price_knapsack(setup.heights, values, capacity);
      if (!price.exact) result->capped = true;
      for (const std::size_t b : box_list) {
        const bool improving =
            feasible ? static_cast<double>(capacity) - y[b] - price.value < -1e-7
                     : y[b] + price.value > 1e-7;
        if (improving && add_column(b, price.config)) added = true;
      }
    }
    if (!added) break;  // optimal, or infeasible over the *full* column set
    if (columns.size() >= params.max_configs ||
        result->pricing_rounds >= params.max_pricing_rounds) {
      result->capped = true;  // safety valve: stop before convergence
      break;
    }
  }
  result->configurations = columns.size();
  // add_column never invalidates the last resolve, so the master still
  // holds the final solution (columns added after it carry no mass; its x
  // is then shorter than `columns`, which realize_solution handles).
  const lp::LpSolution& final_solution = master.solution();
  if (final_solution.status != lp::LpStatus::kOptimal) return;
  result->lp_solved = true;
  result->lp_objective = final_solution.objective;
  realize_solution(instance, items, setup, boxes, columns, final_solution.x,
                   result);
}

}  // namespace

VerticalFillResult fill_vertical_items(const Instance& instance,
                                       const std::vector<std::size_t>& items,
                                       const RoundedHeights& rounding,
                                       const std::vector<GapBox>& boxes,
                                       const VerticalFillParams& params) {
  VerticalFillResult result;
  result.start.assign(items.size(), -1);
  if (items.empty()) {
    result.lp_solved = true;
    return result;
  }
  if (boxes.empty()) {
    for (std::size_t k = 0; k < items.size(); ++k) result.overflow.push_back(k);
    return result;
  }

  const ClassSetup setup = build_classes(instance, items, rounding);
  if (params.engine == ConfigLpEngine::kDenseEnumeration) {
    run_dense(instance, items, setup, boxes, params, &result);
  } else {
    run_column_generation(instance, items, setup, boxes, params, &result);
  }
  if (!result.lp_solved) {
    result.start.assign(items.size(), -1);
    result.overflow.clear();
    for (std::size_t k = 0; k < items.size(); ++k) result.overflow.push_back(k);
  }
  return result;
}

}  // namespace dsp::approx
