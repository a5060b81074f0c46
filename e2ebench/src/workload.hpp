// The workload interface and the per-layer counters every workload fills.
//
// A workload generates its inputs from the seed (setup), solves reference
// answers outside the timed passes (reference), then runs timed passes
// over the same inputs, checking every answer. Per-layer metrics are the
// same set of names on every workload; a layer a workload bypasses reads
// 0 there, which is itself the prediction the README table states.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "lp/problem.hpp"
#include "simplex/solver.hpp"

namespace e2e {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< small sizes, for the benchmark's own tests
  /// service-mix: add the false-family warm-basis requests, which the
  /// default mix leaves out because the service answers them wrongly.
  bool false_family = false;
};

/// The seed whose instances are the committed Fig. 1 / Fig. 2 instances.
inline constexpr std::uint64_t kPaperSeed = 1;

/// Counters one pass leaves behind; the traced pass's copy becomes the
/// per-layer metrics.
struct LayerCounts {
  // vgpu (device-engine solves only; batch rounds included)
  double launches = 0, device_iterations = 0;
  double kernel_sim_s = 0, transfer_sim_s = 0;
  double h2d_bytes = 0, d2h_bytes = 0, flops = 0, bytes = 0;
  double device_wall_s = 0, device_sim_s = 0;
  double launch_bound_frac = 0;
  // simplex (every engine solve)
  double iterations = 0, phase1_iterations = 0;
  std::map<std::string, std::pair<double, double>> engine_wall_iters;
  // basis (direct oracle calls)
  double eta_count = 0, refactor_count = 0;
  std::map<std::string, double> oracle;  ///< "<oracle>.<call>_<unit>"
  // service
  std::map<std::string, double> routes;  ///< route name -> requests
  double batch_rounds = 0, batch_fill = 0;
  double warm_hits = 0, warm_lookups = 0;
  double warm_basis = 0, warm_fallback = 0;
  double queue_p50_ms = 0, queue_p99_ms = 0;
  double engine_p50_ms = 0, engine_p99_ms = 0;
  double submit_us = 0, drain_overhead_ms = 0;
  double rejected = 0, deadline_missed = 0;
  // observe
  std::map<std::string, double> observer_x;  ///< wall with ÷ bare
  double trace_events = 0, record_bytes = 0;

  void add_device(const gs::vgpu::DeviceStats& ds, std::size_t iterations,
                  double wall_s, double sim_s) {
    launches += double(ds.kernel_launches);
    device_iterations += double(iterations);
    kernel_sim_s += ds.kernel_seconds;
    transfer_sim_s += ds.transfer_seconds();
    h2d_bytes += double(ds.h2d_bytes);
    d2h_bytes += double(ds.d2h_bytes);
    flops += ds.total_flops;
    bytes += ds.total_bytes;
    device_wall_s += wall_s;
    device_sim_s += sim_s;
  }
  void add_engine(std::string_view engine, double wall_s,
                  const gs::simplex::SolverStats& st) {
    iterations += double(st.iterations);
    phase1_iterations += double(st.phase1_iterations);
    auto& [w, it] = engine_wall_iters[std::string(engine)];
    w += wall_s;
    it += double(st.iterations);
  }
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// (Re)generate every input from the seed, replacing earlier inputs.
  virtual void setup(SpanLog& spans) = 0;
  /// Reference answers, solved once outside the timed passes.
  virtual void reference(SpanLog& spans) = 0;
  /// One pass over the inputs, every answer checked into `tally`. `wall`
  /// is non-null in traced passes. Returns the pass's modeled seconds.
  virtual double pass(SpanLog& spans, WallSink* wall, Tally& tally,
                      LayerCounts& layers) = 0;
  /// Workload-specific end-to-end metrics from the last pass.
  virtual void end_to_end(MetricSet& out) const = 0;
  /// Extra traced-run work (profiler pass, direct oracle timing, ...).
  virtual void traced_extras(SpanLog& /*spans*/, Tally& /*tally*/,
                             LayerCounts& /*layers*/) {}
  /// Human-readable lines printed before the result.
  virtual void describe(std::ostream& os) const = 0;
};

std::unique_ptr<Workload> make_dense_sweep(const Config& cfg);
std::unique_ptr<Workload> make_sparse_basis(const Config& cfg);
std::unique_ptr<Workload> make_service_mix(const Config& cfg);
std::unique_ptr<Workload> make_observed(const Config& cfg);

/// `problem` in a layout drawn from `seed`: rows and columns permuted,
/// plus 1-8 empty zero-cost columns. It is the same problem (same optimum,
/// and an empty column never prices in), so the pivot path is the same up
/// to tie-breaking and rounding, while the data the program sees, and the
/// vector lengths the modeled clock charges for, change a little with the
/// seed. The identity for kPaperSeed.
[[nodiscard]] gs::lp::LpProblem seeded_layout(
    const gs::lp::LpProblem& problem, std::uint64_t seed);

/// One engine solve through simplex::solve, wrapped in a benchmark span
/// ("simplex.solve.<engine>") and, in traced passes, streamed into
/// `wall`. Its wall time and counters are added to `layers`.
struct TimedSolve {
  gs::simplex::SolveResult result;
  double wall_s = 0.0;
};
TimedSolve timed_solve(SpanLog& spans, WallSink* wall,
                       const gs::lp::LpProblem& problem,
                       gs::simplex::Engine engine,
                       const gs::simplex::SolverOptions& base,
                       LayerCounts& layers);

/// Re-solve with the profiler attached; checks that its kernel totals
/// reconcile bit-exactly with DeviceStats and that the modeled result
/// matches the bare solve's `bare`, and adds the launch-bound share
/// (weighted by modeled kernel seconds) to `weighted_frac` / `kernel_s`.
void profile_solve(const gs::lp::LpProblem& problem,
                   gs::simplex::Engine engine,
                   const gs::simplex::SolverOptions& base,
                   const gs::simplex::SolverStats& bare, Tally& tally,
                   double& weighted_frac, double& kernel_s);

[[nodiscard]] constexpr bool is_device_engine(gs::simplex::Engine e) {
  return e == gs::simplex::Engine::kDeviceRevised ||
         e == gs::simplex::Engine::kDeviceRevisedFloat ||
         e == gs::simplex::Engine::kSparseRevised;
}

/// Relative objective agreement.
[[nodiscard]] inline bool objectives_agree(double got, double want,
                                           double rel_tol) {
  const double scale = std::max(1.0, std::abs(want));
  return std::abs(got - want) <= rel_tol * scale;
}

}  // namespace e2e
