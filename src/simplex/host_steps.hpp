// Host revised-simplex state and its primal step set (see
// primal_driver.hpp): plain double loops over a BasisOracle, metered
// through a CostMeter. Shared by the host engine and the dual engine's
// primal cleanup, which runs these same steps over the same state.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "lp/standard_form.hpp"
#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/primal_driver.hpp"
#include "simplex/types.hpp"
#include "sparse/csr.hpp"
#include "support/timer.hpp"
#include "vblas/dot_rows.hpp"

namespace gs::simplex::host {

/// Mutable solver state for one solve (all host memory). The basis
/// representation lives behind the BasisOracle seam: SolverOptions::basis
/// selects the explicit dense inverse (the default) or the product-form/
/// eta scheme.
struct State {
  State(const AugmentedLp& aug_in, const SolverOptions& opt_in,
        CostMeter& meter_in)
      : aug(aug_in),
        m(aug_in.m),
        n_aug(aug_in.n_aug),
        at(aug_in.csr_at()),
        cols(at),
        beta(aug_in.beta_init),
        pi(m),
        d(n_aug),
        alpha(m),
        colbuf(m),
        cb(m),
        basic(aug_in.basic),
        in_basis(n_aug, false),
        opt(opt_in),
        meter(meter_in) {
    if (opt.basis == BasisScheme::kExplicitInverse) {
      oracle = std::make_unique<basis::ExplicitInverseOracle>(
          m, aug.binv_diag, cols, meter, opt);
    } else {
      oracle = std::make_unique<basis::ProductFormOracle>(m, basic, cols,
                                                          meter, opt);
    }
    for (std::uint32_t col : basic) in_basis[col] = true;
  }

  [[nodiscard]] bool may_enter(std::size_t j) const {
    return !in_basis[j] && !aug.is_artificial[j];
  }

  [[nodiscard]] double objective() const {
    double z = 0.0;
    for (std::size_t i = 0; i < m; ++i) z += c[basic[i]] * beta[i];
    return z;
  }

  /// Install a new basis (already factorized by the oracle).
  void set_basis(std::vector<std::uint32_t> b) {
    basic = std::move(b);
    std::fill(in_basis.begin(), in_basis.end(), false);
    for (const std::uint32_t col : basic) in_basis[col] = true;
  }

  const AugmentedLp& aug;
  std::size_t m, n_aug;
  /// A^T augmented (n_aug x m) by its nonzeros: row j lists column j of
  /// A in strictly ascending row order.
  sparse::CsrMatrix<double> at;
  basis::ColumnSource cols;
  std::unique_ptr<basis::BasisOracle> oracle;
  std::vector<double> beta, pi, d, alpha;
  std::vector<double> colbuf, cb;  ///< oracle call scratch
  std::vector<std::uint32_t> basic;
  std::vector<bool> in_basis;
  std::vector<double> c;  ///< current working costs
  const SolverOptions& opt;
  CostMeter& meter;
};

/// True iff `basis` has one distinct, non-artificial, in-range column per
/// row — the shape check every warm start runs before factorizing.
[[nodiscard]] inline bool valid_basis(const State& s,
                                      const std::vector<std::uint32_t>& basis) {
  if (basis.size() != s.m) return false;
  std::vector<bool> used(s.n_aug, false);
  for (std::uint32_t col : basis) {
    if (col >= s.n_aug || s.aug.is_artificial[col] || used[col]) return false;
    used[col] = true;
  }
  return true;
}

/// pi = (B^-1)^T c_B via the oracle's BTRAN.
inline void btran(State& s) {
  for (std::size_t i = 0; i < s.m; ++i) s.cb[i] = s.c[s.basic[i]];
  s.oracle->btran(s.cb, s.pi);
}

/// True iff no entry of `y` is infinite or NaN.
[[nodiscard]] inline bool all_finite(std::span<const double> y) {
  return std::all_of(y.begin(), y.end(),
                     [](double v) { return std::isfinite(v); });
}

/// a_j . y, bit for bit the dense scalar loop over all m rows. For a
/// finite y only column j's nonzeros are visited, in ascending row order:
/// a skipped zero term adds ±0, which leaves the accumulator unchanged (it
/// starts at +0 and is never −0). A non-finite y keeps every dense term,
/// 0 * y_r for the absent rows, since 0 * inf is NaN. DESIGN.md "Blocked
/// hot loops" has the argument.
[[nodiscard]] inline double column_dot(const State& s, std::size_t j,
                                       const double* y, bool y_finite) {
  const std::uint32_t end = s.at.row_offsets()[j + 1];
  const std::uint32_t* idx = s.at.col_indices().data();
  const double* val = s.at.values().data();
  std::uint32_t k = s.at.row_offsets()[j];
  double acc = 0.0;
  if (y_finite) {
    for (; k < end; ++k) acc += val[k] * y[idx[k]];
  } else {
    for (std::size_t r = 0; r < s.m; ++r) {
      acc += (k < end && idx[k] == r ? val[k++] : 0.0) * y[r];
    }
  }
  return acc;
}

/// A(i, j): read directly from a full column (its value run is the dense
/// column), else a binary search of column j's ascending row indices.
[[nodiscard]] inline double entry(const State& s, std::size_t j,
                                  std::size_t i) {
  const std::uint32_t lo = s.at.row_offsets()[j];
  const std::uint32_t hi = s.at.row_offsets()[j + 1];
  if (hi - lo == s.m) return s.at.values()[lo + i];
  const auto& idx = s.at.col_indices();
  const auto it = std::lower_bound(idx.begin() + lo, idx.begin() + hi, i);
  return it != idx.begin() + hi && *it == i
             ? s.at.values()[std::size_t(it - idx.begin())]
             : 0.0;
}

/// put(j, a_j . y) for every column j that may enter. Full columns
/// (nnz == m: their value run is the dense column) go in chunks through
/// the blocked dot_rows_by; the others walk their nonzeros. Every value is
/// bit for bit the dense scalar loop.
template <class Put>
inline void admissible_dots(const State& s, std::span<const double> y,
                            Put put) {
  const bool y_finite = all_finite(y);
  const auto& offs = s.at.row_offsets();
  const double* val = s.at.values().data();
  constexpr std::size_t kChunk = 256;
  std::array<std::uint32_t, kChunk> full;
  std::array<double, kChunk> dots;
  for (std::size_t lo = 0; lo < s.n_aug; lo += kChunk) {
    const std::size_t hi = std::min(s.n_aug, lo + kChunk);
    std::size_t count = 0;
    for (std::size_t j = lo; j < hi; ++j) {
      if (!s.may_enter(j)) continue;
      if (offs[j + 1] - offs[j] == s.m) {
        full[count++] = static_cast<std::uint32_t>(j);
      } else {
        put(j, column_dot(s, j, y.data(), y_finite));
      }
    }
    vblas::detail::dot_rows_by(
        count, [&](std::size_t t) { return val + offs[full[t]]; }, y.data(),
        s.m, dots.data());
    for (std::size_t t = 0; t < count; ++t) put(full[t], dots[t]);
  }
}

/// d_j = c_j - a_j . pi for admissible columns, 0 otherwise.
inline void price(State& s) {
  std::fill(s.d.begin(), s.d.end(), 0.0);
  admissible_dots(s, s.pi,
                  [&s](std::size_t j, double dot) { s.d[j] = s.c[j] - dot; });
  s.meter.charge("price_reduced", 2.0 * double(s.n_aug) * double(s.m),
                 double((s.n_aug * s.m + 3 * s.n_aug) * sizeof(double)));
}

/// alpha = B^-1 a_q via the oracle's FTRAN.
inline void ftran(State& s, std::size_t q) {
  std::fill(s.colbuf.begin(), s.colbuf.end(), 0.0);
  s.cols.gather(static_cast<std::uint32_t>(q), s.colbuf);
  s.oracle->ftran(s.colbuf, s.alpha);
}

/// Primal basis exchange: step beta by theta along alpha (clamping the
/// rounding dust), then a rank-1 update (explicit inverse) or an eta
/// append (product form).
inline void pivot(State& s, std::size_t q, std::size_t p, double theta) {
  for (std::size_t i = 0; i < s.m; ++i) {
    s.beta[i] = std::max(0.0, s.beta[i] - theta * s.alpha[i]);
  }
  s.beta[p] = theta;
  s.oracle->update(p, s.alpha);
  s.meter.charge("update_beta", 2.0 * double(s.m),
                 double(3 * s.m * sizeof(double)));
  const std::uint32_t leaving = s.basic[p];
  s.basic[p] = static_cast<std::uint32_t>(q);
  s.in_basis[leaving] = false;
  s.in_basis[q] = true;
}

/// Map the optimal basis back to the original problem: x from the basic
/// values, the objective, and y from the multipliers the final pricing
/// pass left in pi.
inline void recover_solution(const State& s, const lp::StandardFormLp& sf,
                             SolveResult& result) {
  std::vector<double> x_std(s.aug.n, 0.0);
  for (std::size_t i = 0; i < s.m; ++i) {
    if (s.basic[i] < s.aug.n) x_std[s.basic[i]] = s.beta[i];
  }
  result.x = sf.recover(x_std);
  double z = 0.0;
  for (std::size_t j = 0; j < s.aug.n; ++j) z += sf.c[j] * x_std[j];
  result.objective = sf.original_objective(z);
  result.y = sf.recover_duals(s.pi);
}

/// Stamp the terminal status, the final basis and the metered stats into
/// `result`, and close the recording when one is attached.
inline SolveResult finish(const State& s, const WallTimer& wall,
                          SolveStatus status, SolveResult& result) {
  result.status = status;
  result.basis = s.basic;
  result.stats.wall_seconds = wall.seconds();
  result.stats.device_stats = s.meter.stats();
  result.stats.sim_seconds = s.meter.sim_seconds();
  if (record::Recorder* rec = s.opt.recorder) {
    rec->end_solve(to_string(status), status == SolveStatus::kOptimal,
                   s.opt.metrics ? s.opt.metrics->warnings_total() : 0,
                   s.basic);
  }
  return result;
}

/// The host step set: Dantzig pricing (Bland when the driver asks), a
/// lowest-row-index ratio test, and the oracle's update/refactor.
struct Steps {
  State& s;
  std::vector<double> brow{};  ///< drive-out row of B^-1
  bool brow_finite = true;     ///< all_finite(brow)

  [[nodiscard]] const trace::Track& track() const { return s.meter.trace(); }
  [[nodiscard]] double now() const { return s.meter.sim_seconds(); }
  [[nodiscard]] double objective() const { return s.objective(); }
  void load_costs(const std::vector<double>& costs) { s.c = costs; }
  [[nodiscard]] std::uint32_t basic_at(std::size_t i) const {
    return s.basic[i];
  }
  [[nodiscard]] bool is_basic(std::size_t j) const { return s.in_basis[j]; }

  StepResult price(bool bland, Pivot& pv) {
    btran(s);
    gs::simplex::host::price(s);
    const double tol = s.opt.opt_tol;
    std::size_t best = s.n_aug;
    double best_d = -tol;
    for (std::size_t j = 0; j < s.n_aug; ++j) {
      if (bland ? s.d[j] < -tol : s.d[j] < best_d) {
        best_d = s.d[j];
        best = j;
        if (bland) break;
      }
    }
    if (best == s.n_aug) return StepResult::kOptimal;
    pv.q = best;
    pv.d_q = s.d[best];
    return StepResult::kContinue;
  }

  void ftran(const Pivot& pv) { ftran_column(pv.q); }
  void ftran_column(std::size_t q) { gs::simplex::host::ftran(s, q); }

  /// Min ratio beta_i / alpha_i over alpha_i > pivot_tol; ties break to
  /// the lowest row index (deterministic, Bland-compatible).
  StepResult ratio(Pivot& pv) {
    std::size_t p = s.m;
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < s.m; ++i) {
      if (s.alpha[i] > s.opt.pivot_tol) {
        const double r = s.beta[i] / s.alpha[i];
        if (r < theta) {
          theta = r;
          p = i;
        }
      }
    }
    s.meter.charge("ratio", double(s.m), double(3 * s.m * sizeof(double)));
    if (p == s.m) return StepResult::kUnbounded;
    pv.p = p;
    pv.theta = theta;
    return StepResult::kContinue;
  }

  void pivot_element(Pivot& pv) const { pv.alpha_p = pivot_value(pv.p); }
  [[nodiscard]] double pivot_value(std::size_t row) const {
    return s.alpha[row];
  }

  /// Rows tied at the winning ratio, using the exact ratio-test expression.
  [[nodiscard]] std::uint32_t ratio_ties(const Pivot& pv) const {
    std::uint32_t ties = 0;
    for (std::size_t i = 0; i < s.m; ++i) {
      if (s.alpha[i] > s.opt.pivot_tol && s.beta[i] / s.alpha[i] == pv.theta) {
        ++ties;
      }
    }
    return ties;
  }

  void update(const Pivot& pv) { pivot(s, pv.q, pv.p, pv.theta); }
  void drive_out_pivot(const Pivot& pv) { pivot(s, pv.q, pv.p, 0.0); }

  /// Product form folds the eta file into fresh sparse LU factors on its
  /// interval/growth trigger; the explicit oracle fires only on an opt-in
  /// refactor_period.
  [[nodiscard]] bool wants_refactor() const {
    return s.oracle->wants_refactor();
  }
  bool refactor() { return s.oracle->refactorize(s.basic); }

  /// Probes entries of B·B⁻¹ − I directly from A^T — column k of B is the
  /// constraint column of basic[k], so one probe is an O(m log m) dot
  /// product over the looked-up entries A(i, basic[k]) — and takes max
  /// |B⁻¹| over the probed rows as the growth.
  [[nodiscard]] HealthProbe probe_health(std::size_t iter,
                                         std::size_t probes) const {
    const std::size_t m = s.m;
    const std::size_t step = std::max<std::size_t>(1, m / probes);
    HealthProbe h;
    std::vector<double> bcol(m), row(m);
    for (std::size_t t = 0; t < probes; ++t) {
      const std::size_t i = (iter + t * step) % m;
      const std::size_t j = (t % 2 == 0) ? i : (i + 1) % m;
      s.oracle->binv_col(j, bcol);
      double acc = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        acc += entry(s, s.basic[k], i) * bcol[k];
      }
      h.residual = std::max(h.residual, std::abs(acc - (i == j ? 1.0 : 0.0)));
      s.oracle->binv_row(i, row);
      for (const double v : row) h.growth = std::max(h.growth, std::abs(v));
    }
    return h;
  }

  void drive_out_row(std::size_t i) {
    brow.resize(s.m);
    s.oracle->binv_row(i, brow);
    brow_finite = all_finite(brow);
    s.meter.charge("driveout_row", 2.0 * double(s.aug.n) * double(s.m),
                   double((s.aug.n * s.m) * sizeof(double)));
  }
  [[nodiscard]] double row_weight(std::size_t j) const {
    return column_dot(s, j, brow.data(), brow_finite);
  }

};

}  // namespace gs::simplex::host
