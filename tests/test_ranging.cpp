// Sensitivity-ranging tests: textbook Wyndor ranges plus perturbation-based
// verification on random instances (inside a range the duals/point persist;
// the objective moves linearly at the dual rate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "lp/generators.hpp"
#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/host_steps.hpp"
#include "simplex/primal_driver.hpp"
#include "simplex/solver.hpp"

namespace gs::simplex {
namespace {

using lp::LpProblem;
using lp::Objective;
using lp::RowSense;

[[nodiscard]] LpProblem wyndor() {
  LpProblem p(Objective::kMaximize, "wyndor");
  const auto x = p.add_variable("x", 3.0);
  const auto y = p.add_variable("y", 5.0);
  p.add_constraint("plant1", {{x, 1.0}}, RowSense::kLe, 4.0);
  p.add_constraint("plant2", {{y, 2.0}}, RowSense::kLe, 12.0);
  p.add_constraint("plant3", {{x, 3.0}, {y, 2.0}}, RowSense::kLe, 18.0);
  return p;
}

[[nodiscard]] SolveResult solve_with_ranging(const LpProblem& p) {
  SolverOptions opt;
  opt.ranging = true;
  return HostRevisedSimplex(opt).solve(p);
}

[[nodiscard]] LpProblem with_rhs(const LpProblem& base, std::size_t row,
                                 double rhs) {
  LpProblem p(base.objective(), "perturbed");
  for (const auto& v : base.variables()) {
    p.add_variable(v.name, v.objective_coef, v.lower, v.upper);
  }
  for (std::size_t i = 0; i < base.num_constraints(); ++i) {
    const auto& con = base.constraint(i);
    p.add_constraint(con.name, con.terms, con.sense,
                     i == row ? rhs : con.rhs);
  }
  return p;
}

[[nodiscard]] LpProblem with_cost(const LpProblem& base, std::size_t var,
                                  double cost) {
  LpProblem p(base.objective(), "perturbed");
  for (std::size_t j = 0; j < base.num_variables(); ++j) {
    const auto& v = base.variable(j);
    p.add_variable(v.name, j == var ? cost : v.objective_coef, v.lower,
                   v.upper);
  }
  for (std::size_t i = 0; i < base.num_constraints(); ++i) {
    const auto& con = base.constraint(i);
    p.add_constraint(con.name, con.terms, con.sense, con.rhs);
  }
  return p;
}

TEST(Ranging, WyndorRhsRangesMatchTextbook) {
  const SolveResult r = solve_with_ranging(wyndor());
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_TRUE(r.ranging.has_value());
  const RangingInfo& rg = *r.ranging;
  // b1 in [2, inf): slack 2 at the optimum, never binding above.
  EXPECT_NEAR(rg.rhs_lower[0], 2.0, 1e-9);
  EXPECT_TRUE(std::isinf(rg.rhs_upper[0]));
  // b2 in [6, 18].
  EXPECT_NEAR(rg.rhs_lower[1], 6.0, 1e-9);
  EXPECT_NEAR(rg.rhs_upper[1], 18.0, 1e-9);
  // b3 in [12, 24].
  EXPECT_NEAR(rg.rhs_lower[2], 12.0, 1e-9);
  EXPECT_NEAR(rg.rhs_upper[2], 24.0, 1e-9);
}

TEST(Ranging, WyndorCostRangesMatchTextbook) {
  const SolveResult r = solve_with_ranging(wyndor());
  ASSERT_TRUE(r.ranging.has_value());
  const RangingInfo& rg = *r.ranging;
  // c_doors in [0, 7.5], c_windows in [2, inf).
  EXPECT_NEAR(rg.cost_lower[0], 0.0, 1e-9);
  EXPECT_NEAR(rg.cost_upper[0], 7.5, 1e-9);
  EXPECT_NEAR(rg.cost_lower[1], 2.0, 1e-9);
  EXPECT_TRUE(std::isinf(rg.cost_upper[1]));
}

TEST(Ranging, NotComputedUnlessRequested) {
  const SolveResult r = solve(wyndor(), Engine::kHostRevised);
  EXPECT_FALSE(r.ranging.has_value());
}

TEST(Ranging, GeRowRangeIsCorrectlyOriented) {
  // min 2x s.t. x >= 3, x <= 10: rhs of the '>=' row ranges over [0, 10].
  LpProblem p(Objective::kMinimize, "ge");
  const auto x = p.add_variable("x", 2.0);
  p.add_constraint("floor", {{x, 1.0}}, RowSense::kGe, 3.0);
  p.add_constraint("cap", {{x, 1.0}}, RowSense::kLe, 10.0);
  const SolveResult r = solve_with_ranging(p);
  ASSERT_TRUE(r.ranging.has_value());
  EXPECT_NEAR(r.ranging->rhs_lower[0], 0.0, 1e-9);
  EXPECT_NEAR(r.ranging->rhs_upper[0], 10.0, 1e-9);
}

TEST(Ranging, FlippedRowRangeIsCorrectlyOriented) {
  // max x with x <= 10 and -x <= -3 (i.e. x >= 3; stored flipped because
  // its rhs is negative). Optimum 10 at the cap; the flipped row is slack
  // by 7 in x-units, so its rhs ranges over [-10, inf) with dual 0.
  LpProblem p(Objective::kMaximize, "flipped");
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("floor", {{x, -1.0}}, RowSense::kLe, -3.0);
  p.add_constraint("cap", {{x, 1.0}}, RowSense::kLe, 10.0);
  const SolveResult r = solve_with_ranging(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-9);
  EXPECT_NEAR(r.y[0], 0.0, 1e-9);
  ASSERT_TRUE(r.ranging.has_value());
  EXPECT_NEAR(r.ranging->rhs_lower[0], -10.0, 1e-9);
  EXPECT_TRUE(std::isinf(r.ranging->rhs_upper[0]) &&
              r.ranging->rhs_upper[0] > 0);
  // The free-split caveat in reverse: a range for a binding flipped row.
  // min x with x free and x >= -4: the split variable's basis flips at
  // x = 0, so the basis-stays-optimal range tops out at rhs = 0.
  LpProblem q(Objective::kMinimize, "flipped_free");
  const auto z = q.add_variable("z", 1.0, -lp::kInf, lp::kInf);
  q.add_constraint("floor", {{z, 1.0}}, RowSense::kGe, -4.0);
  q.add_constraint("cap", {{z, 1.0}}, RowSense::kLe, 10.0);
  const SolveResult rq = solve_with_ranging(q);
  ASSERT_EQ(rq.status, SolveStatus::kOptimal);
  EXPECT_NEAR(rq.objective, -4.0, 1e-9);
  EXPECT_NEAR(rq.y[0], 1.0, 1e-9);
  EXPECT_NEAR(rq.ranging->rhs_upper[0], 0.0, 1e-9);
  EXPECT_TRUE(std::isinf(rq.ranging->rhs_lower[0]));
}

class RangingSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangingSeeds, ObjectiveIsLinearAtTheDualRateInsideRhsRanges) {
  const auto problem =
      lp::random_dense_lp({.rows = 9, .cols = 9, .seed = GetParam()});
  const SolveResult base = solve_with_ranging(problem);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  ASSERT_TRUE(base.ranging.has_value());
  for (std::size_t i = 0; i < problem.num_constraints(); ++i) {
    const double lo = base.ranging->rhs_lower[i];
    const double hi = base.ranging->rhs_upper[i];
    const double rhs = problem.constraint(i).rhs;
    EXPECT_LE(lo, rhs + 1e-9);
    EXPECT_GE(hi, rhs - 1e-9);
    // Step 60% of the way to the nearer finite end and verify linearity.
    double target = rhs;
    if (std::isfinite(hi) && hi > rhs + 1e-7) {
      target = rhs + 0.6 * (hi - rhs);
    } else if (std::isfinite(lo) && lo < rhs - 1e-7) {
      target = rhs + 0.6 * (lo - rhs);
    } else {
      continue;  // degenerate zero-width range
    }
    const SolveResult moved =
        solve(with_rhs(problem, i, target), Engine::kHostRevised);
    ASSERT_EQ(moved.status, SolveStatus::kOptimal);
    EXPECT_NEAR(moved.objective,
                base.objective + base.y[i] * (target - rhs),
                1e-6 * (1.0 + std::abs(base.objective)))
        << "row " << i;
  }
}

TEST_P(RangingSeeds, OptimalPointPersistsInsideCostRanges) {
  const auto problem =
      lp::random_dense_lp({.rows = 9, .cols = 9, .seed = GetParam() + 100});
  const SolveResult base = solve_with_ranging(problem);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  ASSERT_TRUE(base.ranging.has_value());
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    const double lo = base.ranging->cost_lower[j];
    const double hi = base.ranging->cost_upper[j];
    const double c = problem.variable(j).objective_coef;
    ASSERT_FALSE(std::isnan(lo));
    EXPECT_LE(lo, c + 1e-9);
    EXPECT_GE(hi, c - 1e-9);
    double target = c;
    if (std::isfinite(hi) && hi > c + 1e-7) {
      target = c + 0.6 * (hi - c);
    } else if (std::isfinite(lo) && lo < c - 1e-7) {
      target = c + 0.6 * (lo - c);
    } else {
      continue;
    }
    const SolveResult moved =
        solve(with_cost(problem, j, target), Engine::kHostRevised);
    ASSERT_EQ(moved.status, SolveStatus::kOptimal);
    for (std::size_t k = 0; k < base.x.size(); ++k) {
      EXPECT_NEAR(moved.x[k], base.x[k], 1e-6) << "var " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangingSeeds, ::testing::Values(1, 2, 3));

TEST(Ranging, FreeVariableCostRangeIsNan) {
  LpProblem p(Objective::kMinimize, "free");
  const auto x = p.add_variable("x", 1.0, -lp::kInf, lp::kInf);
  p.add_constraint("floor", {{x, 1.0}}, RowSense::kGe, -2.0);
  const SolveResult r = solve_with_ranging(p);
  ASSERT_TRUE(r.ranging.has_value());
  EXPECT_TRUE(std::isnan(r.ranging->cost_lower[0]));
  EXPECT_TRUE(std::isnan(r.ranging->cost_upper[0]));
}

[[nodiscard]] std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Cost ranging sweeps A^T by its nonzeros. On sparse:96:7 its ranges must
// be bit-equal to the dense reference loop below (a full m-term dot of
// each dense_at() row with the B^-1 row), run over the final state of the
// same host solve, re-driven here step by step.
TEST(Ranging, SparseCostRangesMatchDenseReferenceBits) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const LpProblem problem = lp::random_sparse_lp(
      {.rows = 96, .cols = 192, .density = 0.02, .seed = 7});
  const SolveResult r = solve_with_ranging(problem);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_TRUE(r.ranging.has_value());

  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  const AugmentedLp aug = augment(sf);
  const SolverOptions opt;
  CostMeter meter(vgpu::cpu2009_model());
  host::State s(aug, opt, meter);
  host::Steps steps{s};
  SolverStats stats;
  PrimalDriver driver(steps, aug, opt, stats);
  ASSERT_EQ(driver.run_phases(aug.num_artificial > 0), SolveStatus::kOptimal);

  const auto at = aug.dense_at();
  const std::size_t m = aug.m;
  std::vector<std::int64_t> row_of(aug.n_aug, -1);
  for (std::size_t i = 0; i < m; ++i) row_of[s.basic[i]] = std::int64_t(i);
  std::vector<double> brow(m);
  std::size_t basic_vars = 0;
  for (std::size_t j = 0; j < sf.var_maps.size(); ++j) {
    const std::uint32_t col = sf.var_maps[j].col;
    double dlo = -s.d[col], dhi = kInfinity;
    if (row_of[col] >= 0) {
      ++basic_vars;
      s.oracle->binv_row(static_cast<std::size_t>(row_of[col]), brow);
      dlo = -kInfinity;
      for (std::size_t k = 0; k < aug.n_aug; ++k) {
        if (!s.may_enter(k)) continue;
        double w = 0.0;
        for (std::size_t t = 0; t < m; ++t) w += at(k, t) * brow[t];
        if (w > 1e-9) {
          dhi = std::min(dhi, s.d[k] / w);
        } else if (w < -1e-9) {
          dlo = std::max(dlo, s.d[k] / w);
        }
      }
    }
    // The generator's variables map directly (minimize, x >= 0).
    EXPECT_EQ(bits(r.ranging->cost_lower[j]), bits(s.c[col] + dlo)) << j;
    EXPECT_EQ(bits(r.ranging->cost_upper[j]), bits(s.c[col] + dhi)) << j;
  }
  EXPECT_GT(basic_vars, 0u);
}

}  // namespace
}  // namespace gs::simplex
