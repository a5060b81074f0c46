#include "simplex/tableau.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "profile/profile.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/primal_driver.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex {

namespace {

/// Full tableau: body is B^-1 A (m x n_aug), rhs is B^-1 b, and reduced
/// costs are maintained in `drow` by the same eliminations. It is also
/// the tableau's PrimalDriver step set (see primal_driver.hpp): the body
/// already holds every FTRAN'd column and every row of B^-1 A, so those
/// steps only note an index, and a basis update is one elimination.
struct Tableau {
  Tableau(const AugmentedLp& aug_in, const SolverOptions& opt_in,
          CostMeter& meter_in)
      : aug(aug_in),
        m(aug_in.m),
        n_aug(aug_in.n_aug),
        body(aug_in.dense_a()),
        rhs(aug_in.b),
        drow(aug_in.n_aug, 0.0),
        basic(aug_in.basic),
        in_basis(aug_in.n_aug, false),
        opt(opt_in),
        meter(meter_in) {
    // Normalize each row by its crash-basis pivot so the basis columns are
    // unit columns (the crash basis is diagonal, so this is a row scale).
    for (std::size_t i = 0; i < m; ++i) {
      const double s = aug.binv_diag[i];
      if (s != 1.0) {
        auto row = body.row(i);
        for (std::size_t j = 0; j < n_aug; ++j) row[j] *= s;
        rhs[i] *= s;
      }
    }
    for (std::uint32_t col : basic) in_basis[col] = true;
  }

  [[nodiscard]] bool may_enter(std::size_t j) const {
    return !in_basis[j] && !aug.is_artificial[j];
  }

  /// Gauss-Jordan elimination around pivot (p, q) over the whole tableau.
  void eliminate(std::size_t p, std::size_t q) {
    auto prow = body.row(p);
    const double pivot = prow[q];
    for (std::size_t j = 0; j < n_aug; ++j) prow[j] /= pivot;
    rhs[p] /= pivot;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == p) continue;
      auto row = body.row(i);
      const double f = row[q];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < n_aug; ++j) row[j] -= f * prow[j];
      rhs[i] = std::max(0.0, rhs[i] - f * rhs[p]);
    }
    const double fd = drow[q];
    if (fd != 0.0) {
      for (std::size_t j = 0; j < n_aug; ++j) drow[j] -= fd * prow[j];
    }
    meter.charge("eliminate", 2.0 * double(m + 1) * double(n_aug),
                 double((2 * (m + 1) * n_aug) * sizeof(double)));
    const std::uint32_t leaving = basic[p];
    basic[p] = static_cast<std::uint32_t>(q);
    in_basis[leaving] = false;
    in_basis[q] = true;
  }

  // ---- PrimalDriver step set ----

  [[nodiscard]] const trace::Track& track() const { return meter.trace(); }
  [[nodiscard]] double now() const { return meter.sim_seconds(); }
  [[nodiscard]] std::uint32_t basic_at(std::size_t i) const {
    return basic[i];
  }
  [[nodiscard]] bool is_basic(std::size_t j) const { return in_basis[j]; }

  [[nodiscard]] double objective() const {
    double z = 0.0;
    for (std::size_t i = 0; i < m; ++i) z += (*c)[basic[i]] * rhs[i];
    return z;
  }

  /// Install phase costs: drow = c - c_B^T (B^-1 A).
  void load_costs(const std::vector<double>& costs) {
    c = &costs;
    drow = costs;
    for (std::size_t i = 0; i < m; ++i) {
      const double cbi = costs[basic[i]];
      if (cbi == 0.0) continue;
      const auto row = body.row(i);
      for (std::size_t j = 0; j < n_aug; ++j) drow[j] -= cbi * row[j];
    }
    meter.charge("reprice", 2.0 * double(m) * double(n_aug),
                 double((m * n_aug + n_aug) * sizeof(double)));
  }

  /// Dantzig (most negative drow), or the first admissible negative
  /// reduced cost when the driver asks for Bland.
  StepResult price(bool bland, Pivot& pv) {
    const double tol = opt.opt_tol;
    std::size_t best = n_aug;
    double best_d = -tol;
    for (std::size_t j = 0; j < n_aug; ++j) {
      if (!may_enter(j)) continue;
      if (bland ? drow[j] < -tol : drow[j] < best_d) {
        best_d = drow[j];
        best = j;
        if (bland) break;
      }
    }
    if (best == n_aug) return StepResult::kOptimal;
    pv.q = best;
    pv.d_q = drow[best];
    return StepResult::kContinue;
  }

  void ftran(const Pivot& pv) { ftran_column(pv.q); }
  void ftran_column(std::size_t q) { col = q; }

  /// Min ratio rhs_i / body(i, q) over body(i, q) > pivot_tol; ties break
  /// to the lowest row index.
  StepResult ratio(Pivot& pv) {
    std::size_t p = m;
    double theta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      const double a = body(i, pv.q);
      if (a > opt.pivot_tol) {
        const double r = rhs[i] / a;
        if (r < theta) {
          theta = r;
          p = i;
        }
      }
    }
    meter.charge("ratio", double(m), double(2 * m * sizeof(double)));
    if (p == m) return StepResult::kUnbounded;
    pv.p = p;
    pv.theta = theta;
    return StepResult::kContinue;
  }

  void pivot_element(Pivot& pv) const { pv.alpha_p = pivot_value(pv.p); }
  [[nodiscard]] double pivot_value(std::size_t i) const {
    return body(i, col);
  }

  [[nodiscard]] std::uint32_t ratio_ties(const Pivot& pv) const {
    std::uint32_t ties = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double a = body(i, pv.q);
      if (a > opt.pivot_tol && rhs[i] / a == pv.theta) ++ties;
    }
    return ties;
  }

  void update(const Pivot& pv) { eliminate(pv.p, pv.q); }
  void drive_out_pivot(const Pivot& pv) { eliminate(pv.p, pv.q); }

  /// Every elimination keeps the body exact B^-1 A: nothing to refactor.
  [[nodiscard]] bool wants_refactor() const { return false; }
  bool refactor() { return false; }

  /// Entries of B^-1 B - I read off the body's basic columns, and max
  /// |B^-1| over the probed rows: column k of B^-1 is the body's column of
  /// the crash-basis variable of row k scaled by binv_diag[k] (the crash
  /// basis is diagonal and its columns are unit columns of A up to scale).
  [[nodiscard]] HealthProbe probe_health(std::size_t iter,
                                         std::size_t probes) const {
    const std::size_t step = std::max<std::size_t>(1, m / probes);
    HealthProbe h;
    for (std::size_t t = 0; t < probes; ++t) {
      const std::size_t i = (iter + t * step) % m;
      const std::size_t j = (t % 2 == 0) ? i : (i + 1) % m;
      h.residual = std::max(
          h.residual, std::abs(body(i, basic[j]) - (i == j ? 1.0 : 0.0)));
      for (std::size_t k = 0; k < m; ++k) {
        h.growth = std::max(
            h.growth, std::abs(body(i, aug.basic[k]) * aug.binv_diag[k]));
      }
    }
    return h;
  }

  void drive_out_row(std::size_t i) { row = i; }
  [[nodiscard]] double row_weight(std::size_t j) const { return body(row, j); }

  const AugmentedLp& aug;
  std::size_t m, n_aug;
  vblas::Matrix<double> body;
  std::vector<double> rhs;
  std::vector<double> drow;
  std::vector<std::uint32_t> basic;
  std::vector<bool> in_basis;
  const std::vector<double>* c = nullptr;  ///< current phase costs
  std::size_t col = 0;                     ///< last FTRAN'd column
  std::size_t row = 0;                     ///< drive-out row
  const SolverOptions& opt;
  CostMeter& meter;
};

}  // namespace

SolveResult TableauSimplex::solve(const lp::LpProblem& problem) const {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  return solve_standard(sf);
}

SolveResult TableauSimplex::solve_standard(
    const lp::StandardFormLp& sf) const {
  WallTimer wall;
  CostMeter meter(model_,
                  profile::chain(options_.profiler, options_.trace_sink,
                                 trace::kHostPid, model_),
                  options_.metrics);
  const trace::Track& tr = meter.trace();
  const auto clock = [&meter] { return meter.sim_seconds(); };
  if (tr.enabled()) tr.name_thread("tableau");
  trace::ScopedSpan solve_span(tr, "solve", clock, "solve");
  const AugmentedLp aug = augment(sf);
  Tableau tab(aug, options_, meter);
  record::Recorder* rec = options_.recorder;
  if (rec != nullptr) {
    rec->begin_solve("tableau", 64, aug.m, aug.n_aug, decision_digest(aug));
  }

  SolveResult result;
  PrimalDriver driver(tab, aug, options_, result.stats);
  const SolveStatus status = driver.run_phases(aug.num_artificial > 0);
  if (status == SolveStatus::kOptimal) {
    std::vector<double> x_std(aug.n, 0.0);
    for (std::size_t i = 0; i < aug.m; ++i) {
      if (tab.basic[i] < aug.n) x_std[tab.basic[i]] = tab.rhs[i];
    }
    result.x = sf.recover(x_std);
    double z = 0.0;
    for (std::size_t j = 0; j < aug.n; ++j) z += sf.c[j] * x_std[j];
    result.objective = sf.original_objective(z);
    // Duals from the reduced costs of each row's identity column (its
    // slack, or its artificial where no slack exists): d_col = -y_i at
    // optimality.
    std::vector<double> pi(aug.m, 0.0);
    std::size_t k = 0;
    for (std::size_t i = 0; i < aug.m; ++i) {
      const std::size_t col = sf.slack_col[i] >= 0
                                  ? static_cast<std::size_t>(sf.slack_col[i])
                                  : aug.n + k++;
      pi[i] = -tab.drow[col];
    }
    result.y = sf.recover_duals(pi);
  }
  result.status = status;
  result.stats.wall_seconds = wall.seconds();
  result.stats.device_stats = meter.stats();
  result.stats.sim_seconds = meter.sim_seconds();
  if (rec != nullptr) {
    rec->end_solve(to_string(status), status == SolveStatus::kOptimal,
                   options_.metrics ? options_.metrics->warnings_total() : 0,
                   tab.basic);
  }
  return result;
}

}  // namespace gs::simplex