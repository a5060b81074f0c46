// The one primal simplex iteration, shared by every primal engine.
//
// An iteration is price -> FTRAN -> ratio test -> basis update (plus a
// periodic refactorization). What differs between engines is only how
// each step runs: plain host loops over a BasisOracle (host engine, the
// dual engine's primal cleanup), reads and eliminations of the full
// tableau body B^-1 A (tableau.cpp), or device kernels (the device
// engine's fused chain, under either basis representation). The engines
// therefore supply a *step set* — the arithmetic and the kernels — and
// PrimalDriver owns everything around it:
//
//   * the loop: the Bland/hybrid anti-cycling switch, the `iteration`
//     span and the price/ftran/ratio/update/refactor op spans, the
//     `simplex.op_seconds.*` laps, the recorder's DecisionRecord, the
//     HealthMonitor's pivot record, incremental-objective progress (the
//     degeneracy streak, the `objective` trace counter and the
//     `engine.objective` telemetry series), the refactor trigger and the
//     strided health/telemetry sampling;
//   * the phase-1 artificial drive-out;
//   * the phase sequence: phase 1, the feasibility check, drive-out, the
//     iteration-budget carry-over, phase 2, and the exit -> status map.
//
// Steps are resolved at compile time (the driver is a template over the
// step set), so the skeleton adds no virtual call to an iteration.
//
// Step-set contract (every value crossing it is double; a float engine
// widens exactly and narrows back losslessly):
//   const trace::Track& track() const; double now() const;
//   double objective();                        current phase objective
//   void load_costs(const std::vector<double>&);
//   StepResult price(bool bland, Pivot&);      BTRAN + pricing; fills q, d_q
//   void ftran(const Pivot&);
//   StepResult ratio(Pivot&);                  fills p, theta
//   void pivot_element(Pivot&);                fills alpha_p (after `ratio`)
// A step set whose selections stay on the device until one readback (the
// device engine's explicit inverse) may defer: price() then returns
// kContinue without a decision, and ratio() fills the whole Pivot or
// reports kOptimal. `pivot_element` may then be a no-op.
//   std::uint32_t ratio_ties(const Pivot&);    recorder bookkeeping only
//   void update(const Pivot&);                 the basis exchange
//   bool wants_refactor(); bool refactor();    refactor() true on success
//   HealthProbe probe_health(iter, probes);    pure reads, charges nothing
//   std::uint32_t basic_at(row); bool is_basic(col);
//   void drive_out_row(row); double row_weight(col);   (B^-1 A)_row
//   void ftran_column(col); double pivot_value(row);
//   void drive_out_pivot(const Pivot&);        theta = 0 exchange
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "metrics/health.hpp"
#include "record/record.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/types.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace gs::simplex {

/// How one primal phase ended.
enum class LoopExit { kOptimal, kUnbounded, kIterationLimit };

/// What a price or ratio step concluded.
enum class StepResult { kContinue, kOptimal, kUnbounded };

/// One iteration's pivot decision.
struct Pivot {
  std::size_t q = 0;     ///< entering column
  std::size_t p = 0;     ///< leaving row
  double d_q = 0.0;      ///< entering reduced cost
  double theta = 0.0;    ///< primal step length
  double alpha_p = 0.0;  ///< pivot element
};

/// A health sample: the `‖B·B⁻¹ − I‖∞` probe estimate and max |B⁻¹|, or —
/// for bases with no drifting inverse to probe — the eta-file length.
struct HealthProbe {
  double residual = 0.0;
  double growth = 0.0;
  std::optional<std::size_t> eta_count;
};

template <class Steps>
class PrimalDriver {
 public:
  /// Solver-level metrics live for the whole solve (not per phase) so
  /// stall streaks and Bland activations span the phase boundary.
  PrimalDriver(Steps& steps, const AugmentedLp& aug, const SolverOptions& opt,
               SolverStats& stats)
      : s_(steps),
        aug_(aug),
        opt_(opt),
        stats_(stats),
        health_(opt.metrics, opt.health) {
    om_.attach(opt.metrics);
  }

  [[nodiscard]] metrics::HealthMonitor& health() noexcept { return health_; }

  /// Phase 1 (when `phase1`), then phase 2. Returns kOptimal when phase 2
  /// priced out; recovering x and y from the final basis is the engine's.
  SolveStatus run_phases(bool phase1) {
    const trace::Track& tr = s_.track();
    record::Recorder* rec = opt_.recorder;
    std::size_t budget = opt_.max_iterations;
    if (phase1) {
      trace::ScopedSpan phase_span(tr, "phase1", clock(), "phase");
      if (rec != nullptr) rec->begin_phase(1);
      s_.load_costs(aug_.c_phase1);
      const LoopExit exit = run(budget, 1, opt_.pricing);
      stats_.phase1_iterations = stats_.iterations;
      if (exit == LoopExit::kIterationLimit) {
        return SolveStatus::kIterationLimit;
      }
      if (exit == LoopExit::kUnbounded) {
        // The phase-1 objective is bounded below by zero; reaching here
        // means the ratio test lost every pivot to numerics.
        return SolveStatus::kNumericalTrouble;
      }
      const double feas_tol =
          1e-6 * (1.0 + *std::max_element(aug_.b.begin(), aug_.b.end()));
      if (s_.objective() > feas_tol) return SolveStatus::kInfeasible;
      drive_out();
      budget -= std::min(budget, stats_.iterations);
    }
    LoopExit exit;
    {
      trace::ScopedSpan phase_span(tr, "phase2", clock(), "phase");
      if (rec != nullptr) rec->begin_phase(2);
      s_.load_costs(aug_.c_phase2);
      exit = run(budget, 2, opt_.pricing);
    }
    if (exit == LoopExit::kUnbounded) return SolveStatus::kUnbounded;
    if (exit == LoopExit::kIterationLimit) return SolveStatus::kIterationLimit;
    return SolveStatus::kOptimal;
  }

  /// At most `budget` iterations under the installed costs. `pricing`
  /// selects the anti-cycling rule: kBland always, kHybrid after
  /// `degeneracy_window` non-improving steps, otherwise never.
  LoopExit run(std::size_t budget, std::uint8_t phase, PricingRule pricing) {
    const trace::Track& tr = s_.track();
    const auto clk = clock();
    // Per-op laps on the modeled clock, advancing at op boundaries — the
    // metrics mirror of the op spans. A scalar readback between two ops
    // (the device's alpha_p) lands in the lap of the op that consumes it.
    const bool om_on = om_.enabled();
    double lap = 0.0;
    const auto lap_observe = [&](metrics::SimplexOp op) {
      if (!om_on) return;
      const double now = s_.now();
      om_.observe(op, now - lap);
      lap = now;
    };
    double z = s_.objective();
    std::size_t since_improve = 0;
    for (std::size_t iter = 0; iter < budget; ++iter) {
      const bool bland = pricing == PricingRule::kBland ||
                         (pricing == PricingRule::kHybrid &&
                          since_improve >= opt_.degeneracy_window);
      trace::ScopedSpan iter_span(tr, "iteration", clk, "iteration",
                                  {{"iter", static_cast<double>(iter)}});
      if (om_on) lap = s_.now();
      Pivot pv;
      StepResult step;
      {
        trace::ScopedSpan op(tr, "price", clk, "op");
        step = s_.price(bland, pv);
      }
      lap_observe(metrics::SimplexOp::kPrice);
      if (step == StepResult::kOptimal) return LoopExit::kOptimal;
      {
        trace::ScopedSpan op(tr, "ftran", clk, "op");
        s_.ftran(pv);
      }
      lap_observe(metrics::SimplexOp::kFtran);
      {
        trace::ScopedSpan op(tr, "ratio", clk, "op");
        step = s_.ratio(pv);
      }
      lap_observe(metrics::SimplexOp::kRatio);
      if (step == StepResult::kOptimal) return LoopExit::kOptimal;
      if (step == StepResult::kUnbounded) return LoopExit::kUnbounded;
      s_.pivot_element(pv);
      if (record::Recorder* rec = opt_.recorder) {
        record::DecisionRecord r;
        r.phase = phase;
        r.bland = bland ? 1 : 0;
        r.iteration = stats_.iterations;  // global pivot ordinal
        r.entering = static_cast<std::uint32_t>(pv.q);
        r.leaving_row = static_cast<std::uint32_t>(pv.p);
        r.leaving_col = s_.basic_at(pv.p);
        r.ratio_ties = s_.ratio_ties(pv);
        r.reduced_cost = pv.d_q;
        r.pivot_value = pv.alpha_p;
        r.theta = pv.theta;
        rec->record_pivot(r);
      }
      {
        trace::ScopedSpan op(tr, "update", clk, "op");
        s_.update(pv);
      }
      lap_observe(metrics::SimplexOp::kUpdate);
      ++stats_.iterations;
      om_.count_iteration();
      health_.record_pivot(pv.alpha_p, pv.theta, bland, iter);

      const double new_z = z + pv.theta * pv.d_q;
      if (new_z < z - 1e-12 * (1.0 + std::abs(z))) {
        since_improve = 0;
      } else {
        ++since_improve;
      }
      z = new_z;
      if (tr.enabled()) tr.counter("objective", s_.now(), z);
      telemetry::Telemetry* tel = opt_.telemetry;
      const bool want_tel = tel != nullptr && tel->want_iteration_sample(iter);
      if (want_tel) tel->record("engine.objective", s_.now(), z);

      // Periodic refactorization: sheds rounding drift (explicit inverse)
      // or bounds the eta file (product form). A refactor that finds the
      // basis singular keeps the old representation, exact either way.
      if (s_.wants_refactor()) {
        bool refactored;
        {
          trace::ScopedSpan op(tr, "refactor", clk, "op");
          refactored = s_.refactor();
          lap_observe(metrics::SimplexOp::kRefactor);
        }
        if (refactored && opt_.recorder != nullptr) {
          opt_.recorder->record_refactor(stats_.iterations);
        }
      }

      // The health monitor and the telemetry sink sample on independent
      // strides; each is fed only when its own gate fired, so attaching
      // telemetry never changes what the HealthMonitor records.
      const bool want_health = health_.want_residual_sample(iter);
      if (want_health || want_tel) {
        sample(iter, want_health, want_tel ? tel : nullptr);
      }
    }
    return LoopExit::kIterationLimit;
  }

 private:
  [[nodiscard]] auto clock() const {
    return [this] { return s_.now(); };
  }

  /// After a degenerate phase 1, artificials can linger in the basis at
  /// level zero. Replace each with the first non-artificial column that
  /// has a nonzero entry in its row of B^-1 A and an admissible pivot;
  /// rows with no such column are redundant and keep their (permanently
  /// zero) artificial.
  void drive_out() {
    for (std::size_t i = 0; i < aug_.m; ++i) {
      if (!aug_.is_artificial[s_.basic_at(i)]) continue;
      s_.drive_out_row(i);
      std::size_t q = aug_.n_aug;
      for (std::size_t j = 0; j < aug_.n; ++j) {
        if (!s_.is_basic(j) && std::abs(s_.row_weight(j)) > 1e-7) {
          q = j;
          break;
        }
      }
      if (q == aug_.n_aug) continue;
      s_.ftran_column(q);
      const Pivot pv{.q = q, .p = i, .alpha_p = s_.pivot_value(i)};
      if (std::abs(pv.alpha_p) <= opt_.pivot_tol) continue;
      if (record::Recorder* rec = opt_.recorder) {
        record::DecisionRecord r;
        r.phase = 1;
        r.iteration = stats_.iterations;
        r.entering = static_cast<std::uint32_t>(q);
        r.leaving_row = static_cast<std::uint32_t>(i);
        r.leaving_col = s_.basic_at(i);
        r.ratio_ties = 1;
        r.pivot_value = pv.alpha_p;
        rec->record_pivot(r);
      }
      s_.drive_out_pivot(pv);
    }
  }

  void sample(std::size_t iter, bool want_health, telemetry::Telemetry* tel) {
    const std::size_t probes =
        std::max<std::size_t>(1, health_.config().residual_probes);
    const HealthProbe h = s_.probe_health(iter, probes);
    if (h.eta_count.has_value()) {
      if (want_health) health_.record_eta_count(*h.eta_count);
      if (tel != nullptr) {
        tel->record("engine.eta_count", s_.now(),
                    static_cast<double>(*h.eta_count));
      }
      return;
    }
    if (want_health) {
      health_.record_residual(h.residual, iter);
      health_.record_growth(h.growth, iter);
    }
    if (tel != nullptr) {
      tel->record("engine.residual_inf", s_.now(), h.residual);
      tel->record("engine.binv_growth", s_.now(), h.growth);
    }
  }

  Steps& s_;
  const AugmentedLp& aug_;
  const SolverOptions& opt_;
  SolverStats& stats_;
  metrics::SimplexOpMetrics om_;
  metrics::HealthMonitor health_;
};

}  // namespace gs::simplex
