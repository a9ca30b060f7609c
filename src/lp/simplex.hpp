#pragma once

#include <cstddef>
#include <vector>

namespace dsp::lp {

/// Primal simplex solvers for the configuration LPs of Lemmas 10 and 11:
/// minimize c^T x subject to A x = b, x >= 0.
///
/// Two entry points share one tableau core:
///
///  * `solve` — the dense reference path: every column is materialized up
///    front.  Adequate whenever the caller can afford full enumeration.
///  * `ColumnLp` — the column-generation master: columns arrive over time
///    (`add_column`) and `resolve` warm-starts from the previous basis, so
///    callers never materialize the astronomically large full column set.
///
/// Both return a *basic* solution — exactly what Lemma 10/11 rely on ("a
/// basic solution with at most |H| + |B| non-zero components") — together
/// with the row duals that drive the pricing problem.
enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
};

/// Entering-column selection.
enum class PivotRule {
  /// Most-negative reduced cost (ties to the lowest index).  Fast in
  /// practice but can cycle on degenerate bases, so the solver counts
  /// consecutive non-improving pivots and switches permanently to Bland's
  /// rule once `LpOptions::stall_pivots` is reached — the anti-cycling
  /// guarantee is preserved while the non-degenerate prefix of the pivot
  /// path keeps the fast rule.
  kDantzig,
  /// Lowest-index rule from the first pivot (Bland; never cycles).
  kBland,
};

struct LpOptions {
  PivotRule rule = PivotRule::kDantzig;
  /// Consecutive degenerate (objective-preserving) pivots tolerated under
  /// Dantzig before the permanent fallback to Bland's rule.
  std::size_t stall_pivots = 64;
};

struct LpProblem {
  /// Row-major constraint matrix, size rows x cols.
  std::vector<std::vector<double>> a;
  std::vector<double> b;  ///< right-hand side, size rows (made >= 0 internally)
  std::vector<double> c;  ///< objective, size cols
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;           ///< primal values (basic solution)
  std::vector<std::size_t> basis;  ///< basic column per row (>= cols: artificial)
  /// Row duals y = (c_B^T B^{-1})^T of the optimal basis.  At optimality
  /// y^T b equals the objective and every column prices out non-negative:
  /// c_j - y^T a_j >= 0.  Empty unless status is kOptimal.
  std::vector<double> duals;
  std::size_t pivots = 0;  ///< simplex pivots performed by this solve/resolve
};

/// Solves the LP with all columns given up front.  Throws InvalidInput on
/// malformed dimensions.
[[nodiscard]] LpSolution solve(const LpProblem& problem,
                               const LpOptions& options = {});

/// Incremental column-oriented master LP for column generation:
///
///   min c^T x   s.t.   A x = b,  x >= 0,
///
/// where the columns of A arrive over time.  `resolve` re-optimizes; after
/// the first call it warm-starts from the previous optimal basis (newly
/// added columns are priced into the existing tableau, so a re-solve after
/// adding k columns typically costs a handful of pivots instead of a full
/// two-phase solve).
///
/// Infeasibility of the *restricted* master does not prove the full LP
/// infeasible: after an infeasible `resolve`, `farkas()` exposes a
/// certificate y with y^T b > 0 and y^T a_j <= 0 for every column added so
/// far; a pricing oracle that finds a column with y^T a > 0 (Farkas
/// pricing) can restore feasibility, and if no such column exists in the
/// full column set the whole LP is infeasible.
class ColumnLp {
 public:
  /// Starts an empty master over the given right-hand side (one row per
  /// entry; negative entries are sign-normalized internally).
  explicit ColumnLp(std::vector<double> rhs, LpOptions options = {});

  /// Appends one column (dense by-row entries, size rows()) with the given
  /// objective cost and returns its index.  The column is priced into the
  /// current tableau, so add/resolve may be interleaved freely.
  std::size_t add_column(const std::vector<double>& column, double cost);

  /// Re-optimizes over all columns added so far and returns the solution
  /// (also retrievable via solution()).  Warm-starts after the first call.
  const LpSolution& resolve();

  /// The solution of the last resolve() (default-constructed before).
  [[nodiscard]] const LpSolution& solution() const { return solution_; }

  /// Farkas certificate of the last *infeasible* resolve: y^T b > 0 while
  /// y^T a_j <= 0 for every current column.  Empty otherwise — including
  /// the (numerical-failure) case where phase 1 did not reach an optimum,
  /// so an infeasible status with an empty certificate means "could not
  /// solve", not "proved infeasible".
  [[nodiscard]] const std::vector<double>& farkas() const { return farkas_; }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t columns() const { return costs_.size(); }

 private:
  /// Internal tableau layout: columns [0, rows_) are the artificial
  /// variables (their block doubles as B^{-1} of the sign-normalized
  /// system), [rows_, rows_ + n) the real columns in add order, and the
  /// last entry of each row is the right-hand side.  Row rows_ is the
  /// objective row in reduced form (rhs cell = -objective).
  ///
  /// Storage is one flat buffer: row i starts at t_[i * stride_]
  /// and holds width_ = rows_ + n + 1 live cells.  stride_ >= width_ is the
  /// allocated pitch; add_column writes into the headroom (shifting only
  /// the rhs cell) and grow() re-pitches when the headroom runs out, so a
  /// pivot streams contiguous doubles instead of chasing one heap block
  /// per row.
  enum class IterateOutcome { kOptimal, kUnbounded, kNumericalFailure };

  [[nodiscard]] double* row(std::size_t i) { return t_.data() + i * stride_; }
  [[nodiscard]] const double* row(std::size_t i) const {
    return t_.data() + i * stride_;
  }
  [[nodiscard]] double rhs(std::size_t i) const {
    return row(i)[width_ - 1];
  }
  void grow(std::size_t stride);
  void rebuild_objective(bool phase1);
  void reduce_objective_row();
  IterateOutcome iterate(bool phase1, std::size_t* pivots);
  void pivot(std::size_t row, std::size_t col, std::size_t* pivots);
  [[nodiscard]] std::vector<double> duals_for(bool phase1) const;

  std::size_t rows_;
  LpOptions options_;
  std::vector<double> sign_;        ///< per-row +-1 (rhs normalization)
  std::vector<double> costs_;       ///< per real column
  std::vector<double> t_;           ///< flat tableau incl. objective row
  std::size_t width_ = 0;           ///< live cells per row (incl. rhs)
  std::size_t stride_ = 0;          ///< allocated row pitch (>= width_)
  std::vector<std::size_t> basis_;  ///< internal column index per row
  bool feasible_ = false;               ///< phase 1 already completed
  bool bland_ = false;                  ///< permanent Bland fallback engaged
  bool identity_ = true;                ///< no pivot yet: B^{-1} == I
  LpSolution solution_;
  std::vector<double> farkas_;
};

}  // namespace dsp::lp
