#include "simplex/host_revised.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "profile/profile.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/host_steps.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/primal_driver.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace gs::simplex {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using host::State;

/// Post-optimal sensitivity analysis (classical ranging): how far each rhs
/// and each objective coefficient can move before the optimal basis (rhs)
/// or the optimal point (cost) changes. Uses the final B^-1, beta and
/// reduced costs; one sweep over A's nonzeros per basic variable.
[[nodiscard]] RangingInfo compute_ranging(const State& s,
                                          const lp::StandardFormLp& sf) {
  constexpr double tol = 1e-9;
  RangingInfo out;
  const std::size_t m = s.m;

  // ---- rhs ranging: beta + delta * B^-1 e_i >= 0. ----
  out.rhs_lower.assign(sf.num_original_rows, -kInf);
  out.rhs_upper.assign(sf.num_original_rows, kInf);
  std::vector<double> bcol(m);
  for (std::size_t i = 0; i < sf.num_original_rows; ++i) {
    s.oracle->binv_col(i, bcol);
    double dlo = -kInf, dhi = kInf;
    for (std::size_t r = 0; r < m; ++r) {
      const double v = bcol[r];
      if (v > tol) {
        dlo = std::max(dlo, -s.beta[r] / v);
      } else if (v < -tol) {
        dhi = std::min(dhi, -s.beta[r] / v);
      }
    }
    const double rhs = sf.original_rhs[i];
    if (sf.row_flipped[i]) {
      // The stored row is the negated original: delta_orig = -delta_std.
      out.rhs_lower[i] = rhs - dhi;
      out.rhs_upper[i] = rhs - dlo;
    } else {
      out.rhs_lower[i] = rhs + dlo;
      out.rhs_upper[i] = rhs + dhi;
    }
  }

  // ---- cost ranging: reduced costs stay nonnegative. ----
  const std::size_t nvars = sf.var_maps.size();
  out.cost_lower.assign(nvars, -kInf);
  out.cost_upper.assign(nvars, kInf);
  const double sign_obj = sf.negated ? -1.0 : 1.0;
  std::vector<std::int64_t> row_of(s.n_aug, -1);
  std::vector<double> brow(m), weights(s.n_aug);
  for (std::size_t r = 0; r < m; ++r) row_of[s.basic[r]] = std::int64_t(r);
  for (std::size_t j = 0; j < nvars; ++j) {
    const auto& vm = sf.var_maps[j];
    if (vm.kind == lp::StandardFormLp::VarMap::Kind::kFree) {
      // A split variable's cost appears in two columns with opposite signs;
      // ranging is not supported for it.
      out.cost_lower[j] = out.cost_upper[j] =
          std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const double sgn =
        sign_obj *
        (vm.kind == lp::StandardFormLp::VarMap::Kind::kNegated ? -1.0 : 1.0);
    double dlo, dhi;
    if (row_of[vm.col] < 0) {
      // Nonbasic: its own reduced cost may shrink to zero.
      dlo = -s.d[vm.col];
      dhi = kInf;
    } else {
      // Basic at row r: every admissible reduced cost d_k moves by
      // -delta * (B^-1 A)_{r,k}.
      const auto r = static_cast<std::size_t>(row_of[vm.col]);
      s.oracle->binv_row(r, brow);
      host::admissible_dots(
          s, brow, [&](std::size_t k, double w) { weights[k] = w; });
      dlo = -kInf;
      dhi = kInf;
      for (std::size_t k = 0; k < s.n_aug; ++k) {
        if (!s.may_enter(k)) continue;
        const double w = weights[k];
        if (w > tol) {
          dhi = std::min(dhi, s.d[k] / w);
        } else if (w < -tol) {
          dlo = std::max(dlo, s.d[k] / w);
        }
      }
    }
    const double c_orig = sgn * s.c[vm.col];
    if (sgn > 0) {
      out.cost_lower[j] = c_orig + dlo;
      out.cost_upper[j] = c_orig + dhi;
    } else {
      out.cost_lower[j] = c_orig - dhi;
      out.cost_upper[j] = c_orig - dlo;
    }
  }
  return out;
}

/// Install a caller-provided warm-start basis: gather the basis columns
/// from A, invert B (Gauss-Jordan, charged as one `warm_init` step), and
/// accept iff the basis is valid and primal feasible (B⁻¹b ≥ 0). On any
/// failure the crash basis stays installed and the solve proceeds cold.
[[nodiscard]] bool try_warm_start(State& s,
                                  const std::vector<std::uint32_t>& basis) {
  if (!host::valid_basis(s, basis)) return false;
  std::vector<double> beta;
  if (!s.oracle->warm_start(basis, s.aug.b, beta)) return false;
  s.beta = std::move(beta);
  s.set_basis(basis);
  return true;
}

}  // namespace

SolveResult HostRevisedSimplex::solve(const lp::LpProblem& problem) const {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  return solve_standard(sf);
}

SolveResult HostRevisedSimplex::solve_standard(
    const lp::StandardFormLp& sf) const {
  WallTimer wall;
  CostMeter meter(model_,
                  profile::chain(options_.profiler, options_.trace_sink,
                                 trace::kHostPid, model_),
                  options_.metrics);
  const trace::Track& tr = meter.trace();
  const auto clock = [&meter] { return meter.sim_seconds(); };
  if (tr.enabled()) tr.name_thread("host-revised");
  trace::ScopedSpan solve_span(tr, "solve", clock, "solve");
  const AugmentedLp aug = augment(sf);
  State state(aug, options_, meter);
  if (record::Recorder* rec = options_.recorder) {
    rec->begin_solve("host-revised", 64, aug.m, aug.n_aug,
                     decision_digest(aug));
  }

  SolveResult result;

  // Warm start: a feasible caller-provided basis replaces the crash basis
  // and skips phase 1 outright (feasibility is what phase 1 buys).
  if (options_.warm_basis != nullptr) {
    trace::ScopedSpan warm_span(tr, "warm_init", clock, "phase");
    result.stats.warm_started = try_warm_start(state, *options_.warm_basis);
  }

  host::Steps steps{state};
  PrimalDriver driver(steps, aug, options_, result.stats);
  const SolveStatus status =
      driver.run_phases(aug.num_artificial > 0 && !result.stats.warm_started);
  if (status != SolveStatus::kOptimal) {
    return host::finish(state, wall, status, result);
  }
  host::recover_solution(state, sf, result);
  if (options_.ranging) result.ranging = compute_ranging(state, sf);
  return host::finish(state, wall, SolveStatus::kOptimal, result);
}

}  // namespace gs::simplex
