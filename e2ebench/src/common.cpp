// Helpers shared by the workloads: the seeded input layout and the timed
// and profiled engine solves.
#include <algorithm>
#include <numeric>

#include "observers.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace e2e {

namespace {

std::vector<std::uint32_t> shuffled(std::size_t n, gs::Xoshiro256& rng) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace

gs::lp::LpProblem seeded_layout(const gs::lp::LpProblem& problem,
                                std::uint64_t seed) {
  if (seed == kPaperSeed) return problem;
  gs::Xoshiro256 rng(seed);
  const std::size_t n = problem.num_variables();
  const std::size_t pad = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
  // Column k of the result is original column cols[k]; indices >= n are
  // the empty padding columns.
  const std::vector<std::uint32_t> cols = shuffled(n + pad, rng);
  const std::vector<std::uint32_t> rows =
      shuffled(problem.num_constraints(), rng);
  std::vector<std::uint32_t> new_index(cols.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    new_index[cols[k]] = static_cast<std::uint32_t>(k);
  }
  gs::lp::LpProblem out(problem.objective(), problem.name());
  for (const std::uint32_t j : cols) {
    if (j >= n) {
      out.add_variable("pad" + std::to_string(j - n));
      continue;
    }
    const gs::lp::Variable& v = problem.variable(j);
    out.add_variable(v.name, v.objective_coef, v.lower, v.upper);
  }
  for (const std::uint32_t i : rows) {
    const gs::lp::Constraint& c = problem.constraint(i);
    std::vector<gs::lp::Term> terms = c.terms;
    for (gs::lp::Term& t : terms) t.var = new_index[t.var];
    std::sort(terms.begin(), terms.end(),
              [](const gs::lp::Term& a, const gs::lp::Term& b) {
                return a.var < b.var;
              });
    out.add_constraint(c.name, std::move(terms), c.sense, c.rhs);
  }
  return out;
}

TimedSolve timed_solve(SpanLog& spans, WallSink* wall,
                       const gs::lp::LpProblem& problem,
                       gs::simplex::Engine engine,
                       const gs::simplex::SolverOptions& base,
                       LayerCounts& layers) {
  const std::string_view name = gs::simplex::to_string(engine);
  Observers obs(kNoObserver, wall);
  const gs::simplex::SolverOptions opt = obs.attach(base);
  TimedSolve out;
  if (wall != nullptr) wall->arm();
  const double t0 = now_s();
  {
    Span span(spans, "simplex.solve." + std::string(name));
    out.result = gs::simplex::solve(problem, engine, opt);
  }
  out.wall_s = now_s() - t0;
  const gs::simplex::SolverStats& st = out.result.stats;
  layers.add_engine(name, out.wall_s, st);
  if (is_device_engine(engine)) {
    layers.add_device(st.device_stats, st.iterations, out.wall_s,
                      st.sim_seconds);
  }
  return out;
}

void profile_solve(const gs::lp::LpProblem& problem,
                   gs::simplex::Engine engine,
                   const gs::simplex::SolverOptions& base,
                   const gs::simplex::SolverStats& bare, Tally& tally,
                   double& weighted_frac, double& kernel_s) {
  Observers obs(kProfile);
  const gs::simplex::SolveResult r =
      gs::simplex::solve(problem, engine, obs.attach(base));
  const std::string what(gs::simplex::to_string(engine));
  tally.check(obs.profile_reconciles(r.stats.device_stats),
              "profiler totals do not reconcile with DeviceStats (" + what +
                  ")");
  tally.check(r.stats.sim_seconds == bare.sim_seconds &&
                  r.stats.iterations == bare.iterations,
              "profiler changed the modeled solve (" + what + ")");
  weighted_frac +=
      obs.launch_bound_fraction() * r.stats.device_stats.kernel_seconds;
  kernel_s += r.stats.device_stats.kernel_seconds;
}

}  // namespace e2e
