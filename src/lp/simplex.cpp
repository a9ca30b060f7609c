#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace dsp::lp {

namespace {

constexpr double kEps = 1e-9;
/// Residual phase-1 infeasibility above this is a proof of infeasibility
/// (of the restricted column set, for ColumnLp).
constexpr double kFeasTol = 1e-6;
/// Minimum magnitude for the artificial-blocking pivot (see the ratio
/// test): below this, skipping the block leaks at most kPivotTol of
/// infeasibility per unit of entering variable, which stays in tolerance.
constexpr double kPivotTol = 1e-7;

}  // namespace

ColumnLp::ColumnLp(std::vector<double> rhs, LpOptions options)
    : rows_(rhs.size()),
      options_(options),
      sign_(rows_, 1.0),
      basis_(rows_),
      bland_(options.rule == PivotRule::kBland) {
  width_ = rows_ + 1;
  stride_ = width_;
  t_.assign((rows_ + 1) * stride_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    if (rhs[i] < 0) sign_[i] = -1.0;
    double* r = row(i);
    r[i] = 1.0;  // artificial variable; the block doubles as B^{-1}
    r[width_ - 1] = sign_[i] * rhs[i];
    basis_[i] = i;
  }
}

void ColumnLp::grow(std::size_t stride) {
  std::vector<double> next((rows_ + 1) * stride, 0.0);
  for (std::size_t i = 0; i <= rows_; ++i) {
    std::copy_n(t_.data() + i * stride_, width_, next.data() + i * stride);
  }
  t_ = std::move(next);
  stride_ = stride;
}

std::size_t ColumnLp::add_column(const std::vector<double>& column,
                                 double cost) {
  DSP_REQUIRE(column.size() == rows_,
              "ColumnLp::add_column: column has " << column.size()
                                                  << " entries, want " << rows_);
  if (width_ + 1 > stride_) grow(std::max(stride_ * 2, width_ + 1));
  // Price the new column into the current tableau: B^{-1} (sign-normalized
  // column), where B^{-1} is the artificial block.  Before the first pivot
  // that block is exactly the identity, so the bulk-loading path (the dense
  // solve() wrapper) skips the O(rows^2) multiply.
  for (std::size_t i = 0; i <= rows_; ++i) {
    double v = 0.0;
    double* r = row(i);
    if (i < rows_) {
      if (identity_) {
        v = sign_[i] * column[i];
      } else {
        for (std::size_t k = 0; k < rows_; ++k) {
          v += r[k] * sign_[k] * column[k];
        }
      }
    }
    r[width_] = r[width_ - 1];  // rhs shifts into the headroom cell
    r[width_ - 1] = v;          // objective cell rebuilt at resolve
  }
  ++width_;
  costs_.push_back(cost);
  return costs_.size() - 1;
}

void ColumnLp::rebuild_objective(bool phase1) {
  double* obj = row(rows_);
  for (std::size_t j = 0; j < rows_; ++j) obj[j] = phase1 ? 1.0 : 0.0;
  for (std::size_t j = 0; j < costs_.size(); ++j) {
    obj[rows_ + j] = phase1 ? 0.0 : costs_[j];
  }
  obj[width_ - 1] = 0.0;
  reduce_objective_row();
}

void ColumnLp::reduce_objective_row() {
  double* obj = row(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double f = obj[basis_[i]];
    if (std::abs(f) < kEps) continue;
    const double* r = row(i);
    for (std::size_t j = 0; j < width_; ++j) obj[j] -= f * r[j];
  }
}

void ColumnLp::pivot(std::size_t prow_index, std::size_t col,
                     std::size_t* pivots) {
  double* prow = row(prow_index);
  const double p = prow[col];
  for (std::size_t j = 0; j < width_; ++j) prow[j] /= p;
  for (std::size_t i = 0; i <= rows_; ++i) {
    if (i == prow_index) continue;
    double* irow = row(i);
    const double f = irow[col];
    if (std::abs(f) < kEps) continue;
    for (std::size_t j = 0; j < width_; ++j) irow[j] -= f * prow[j];
  }
  basis_[prow_index] = col;
  identity_ = false;
  ++*pivots;
}

ColumnLp::IterateOutcome ColumnLp::iterate(bool phase1, std::size_t* pivots) {
  const std::size_t n = costs_.size();
  std::size_t stalled = 0;
  for (;;) {
    // Entering column: real columns only — artificial columns are excluded
    // structurally, so they can never re-enter the basis.
    const double* obj = row(rows_);
    std::size_t pivot_col = rows_ + n;
    if (bland_) {
      for (std::size_t j = rows_; j < rows_ + n; ++j) {
        if (obj[j] < -kEps) {
          pivot_col = j;
          break;
        }
      }
    } else {
      double most_negative = -kEps;
      for (std::size_t j = rows_; j < rows_ + n; ++j) {
        if (obj[j] < most_negative) {
          most_negative = obj[j];
          pivot_col = j;
        }
      }
    }
    if (pivot_col == rows_ + n) return IterateOutcome::kOptimal;
    // Ratio test; ties broken by lowest basis index (Bland-compatible).
    // A zero-valued basic *artificial* additionally blocks at ratio 0 even
    // on a negative coefficient: increasing the entering variable would
    // drive the artificial positive, i.e. silently violate its (redundant
    // until now) row.  The degenerate pivot kicks the artificial out in
    // favour of the entering column instead; since artificials never
    // re-enter, at most rows_ such pivots can ever happen.
    std::size_t pivot_row = rows_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rows_; ++i) {
      const double coef = row(i)[pivot_col];
      double ratio;
      if (coef > kEps) {
        ratio = rhs(i) / coef;
      } else if (coef < -kPivotTol && basis_[i] < rows_ &&
                 rhs(i) <= kFeasTol * -coef) {
        // Accepting this pivot makes the entering variable basic at
        // rhs / coef, a *negative* value of magnitude rhs / |coef| — the
        // guard keeps that within kFeasTol, so a sub-tolerance phase-1
        // residual is never amplified past tolerance (for exact data the
        // rhs is exactly zero and the pivot is cleanly degenerate).  Rows
        // failing the guard fall through to the ordinary test; their
        // artificial then drifts by at most |coef| per unit of entering
        // variable, which the kPivotTol floor keeps sub-tolerance too.
        ratio = 0.0;
      } else {
        continue;
      }
      if (ratio < best_ratio - kEps ||
          (ratio < best_ratio + kEps &&
           (pivot_row == rows_ || basis_[i] < basis_[pivot_row]))) {
        best_ratio = ratio;
        pivot_row = i;
      }
    }
    if (pivot_row == rows_) return IterateOutcome::kUnbounded;
    // Projected-drift guard (phase 2 only; phase 1 may legitimately regrow
    // artificials): if taking this step would push a zero-valued basic
    // artificial beyond tolerance — its coefficient was too small for the
    // blocking rule, but the entering value best_ratio is large — no safe
    // pivot exists and the solve must fail loudly rather than return an
    // "optimal" point violating that row.
    if (!phase1) {
      for (std::size_t i = 0; i < rows_; ++i) {
        if (i == pivot_row || basis_[i] >= rows_) continue;
        const double coef = row(i)[pivot_col];
        if (coef < -kEps && rhs(i) <= kFeasTol &&
            rhs(i) - coef * best_ratio > kFeasTol) {
          return IterateOutcome::kNumericalFailure;
        }
      }
    }
    const double before = rhs(rows_);
    pivot(pivot_row, pivot_col, pivots);
    // Stall detection: a run of degenerate pivots under Dantzig engages
    // Bland's rule permanently (anti-cycling).
    if (!bland_) {
      if (rhs(rows_) > before + kEps) {
        stalled = 0;
      } else if (++stalled >= options_.stall_pivots) {
        bland_ = true;
      }
    }
  }
}

std::vector<double> ColumnLp::duals_for(bool phase1) const {
  // y^T = c_B^T B^{-1}, read off the artificial block, then sign-unnormalized
  // back to the caller's row orientation.
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const bool artificial = basis_[i] < rows_;
    const double cost = phase1 ? (artificial ? 1.0 : 0.0)
                               : (artificial ? 0.0 : costs_[basis_[i] - rows_]);
    if (std::abs(cost) < kEps) continue;
    const double* r = row(i);
    for (std::size_t k = 0; k < rows_; ++k) y[k] += cost * r[k];
  }
  for (std::size_t k = 0; k < rows_; ++k) y[k] *= sign_[k];
  return y;
}

const LpSolution& ColumnLp::resolve() {
  solution_ = LpSolution{};
  farkas_.clear();
  std::size_t pivots = 0;
  const auto external_basis = [&] {
    std::vector<std::size_t> basis(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      basis[i] = basis_[i] < rows_ ? costs_.size() + basis_[i]
                                   : basis_[i] - rows_;
    }
    return basis;
  };

  if (!feasible_) {
    // Phase 1: minimize the artificial sum.  Never unbounded (the objective
    // is bounded below by zero); a non-optimal outcome is a numerical
    // failure and is reported as infeasible.
    rebuild_objective(/*phase1=*/true);
    const IterateOutcome outcome = iterate(/*phase1=*/true, &pivots);
    const double infeasibility = -rhs(rows_);
    if (outcome != IterateOutcome::kOptimal || infeasibility > kFeasTol) {
      solution_.status = LpStatus::kInfeasible;
      solution_.basis = external_basis();
      solution_.pivots = pivots;
      // A certificate only exists at a phase-1 *optimum*; after a numerical
      // failure farkas_ stays empty so callers can tell "proved infeasible"
      // from "could not solve" (see the header contract).
      if (outcome == IterateOutcome::kOptimal) {
        farkas_ = duals_for(/*phase1=*/true);
      }
      return solution_;
    }
    feasible_ = true;
    // Drive remaining artificial variables out of the basis when possible;
    // rows where no real column has a usable entry are redundant (or carry
    // a sub-tolerance residual) and keep their artificial harmlessly — the
    // blocking rule in the ratio test protects them from later drift.
    // Usable means the same guards as that rule: a pivot magnitude of at
    // least kPivotTol, and a resulting basic value |rhs / coef| within
    // kFeasTol, so a sub-tolerance phase-1 residual is never amplified.
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] >= rows_) continue;
      for (std::size_t j = rows_; j < rows_ + costs_.size(); ++j) {
        const double coef = std::abs(row(i)[j]);
        if (coef >= kPivotTol && std::abs(rhs(i)) <= kFeasTol * coef) {
          pivot(i, j, &pivots);
          break;
        }
      }
    }
  }

  rebuild_objective(/*phase1=*/false);
  switch (iterate(/*phase1=*/false, &pivots)) {
    case IterateOutcome::kOptimal:
      break;
    case IterateOutcome::kUnbounded:
      solution_.status = LpStatus::kUnbounded;
      solution_.basis = external_basis();
      solution_.pivots = pivots;
      return solution_;
    case IterateOutcome::kNumericalFailure:
      // No safe pivot exists (see iterate's drift guard): report
      // "could not solve" — infeasible status with an empty certificate —
      // never an "optimal" point that violates a constraint.  The basis is
      // still primal feasible, so later resolves (with more columns) may
      // succeed.
      solution_.status = LpStatus::kInfeasible;
      solution_.basis = external_basis();
      solution_.pivots = pivots;
      return solution_;
  }

  solution_.status = LpStatus::kOptimal;
  solution_.x.assign(costs_.size(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    if (basis_[i] >= rows_) {
      solution_.x[basis_[i] - rows_] = std::max(0.0, rhs(i));
    }
  }
  solution_.objective = 0.0;
  for (std::size_t j = 0; j < costs_.size(); ++j) {
    solution_.objective += costs_[j] * solution_.x[j];
  }
  solution_.basis = external_basis();
  solution_.duals = duals_for(/*phase1=*/false);
  solution_.pivots = pivots;
  return solution_;
}

LpSolution solve(const LpProblem& problem, const LpOptions& options) {
  const std::size_t rows = problem.a.size();
  const std::size_t cols = problem.c.size();
  DSP_REQUIRE(problem.b.size() == rows, "LP: |b| != rows");
  for (const auto& row : problem.a) {
    DSP_REQUIRE(row.size() == cols, "LP: ragged constraint matrix");
  }
  ColumnLp master(problem.b, options);
  std::vector<double> column(rows);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) column[i] = problem.a[i][j];
    master.add_column(column, problem.c[j]);
  }
  return master.resolve();
}

}  // namespace dsp::lp
