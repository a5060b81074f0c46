// dense-sweep: the paper's Figs. 1-3 at and above the GPU/CPU crossover.
//
// random_dense_lp with m = n in {256, 512, 1024}, each solved by the
// device engine in double and float, the host revised simplex and the
// tableau baseline. The dense vgpu kernels and the engine loops do nearly
// all the work; the service, sparse, product-form and observer layers are
// bypassed.
#include <cstdio>
#include <ostream>

#include "lp/generators.hpp"
#include "lp/standard_form.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using gs::simplex::Engine;

constexpr Engine kSweepEngines[] = {
    Engine::kDeviceRevised, Engine::kDeviceRevisedFloat,
    Engine::kHostRevised, Engine::kTableau};
constexpr std::size_t kEngineCount = std::size(kSweepEngines);

/// Modeled results of one size in the last pass.
struct Row {
  std::size_t m = 0;
  std::size_t iterations = 0;
  double sim_ms[kEngineCount] = {};
  [[nodiscard]] double speedup() const { return sim_ms[2] / sim_ms[0]; }
};

class DenseSweep final : public Workload {
 public:
  explicit DenseSweep(const Config& cfg)
      : cfg_(cfg),
        sizes_(cfg.tiny ? std::vector<std::size_t>{16, 24, 32}
                        : std::vector<std::size_t>{256, 512, 1024}) {}

  void setup(SpanLog& spans) override {
    lps_.clear();
    for (const std::size_t m : sizes_) {
      {
        Span span(spans, "lp.generate");
        // The committed Fig. 1 instance of this size, in a seeded layout.
        lps_.push_back(seeded_layout(
            gs::lp::random_dense_lp({.rows = m, .cols = m, .seed = 1}),
            cfg_.seed));
      }
      Span span(spans, "lp.to_standard_form");
      (void)gs::lp::to_standard_form(lps_.back());
    }
  }

  void reference(SpanLog& spans) override {
    ref_.clear();
    for (const gs::lp::LpProblem& lp : lps_) {
      Span span(spans, "simplex.reference");
      const auto r = gs::simplex::solve(lp, Engine::kHostRevised);
      GS_CHECK_MSG(r.optimal(), "dense-sweep: reference solve not optimal");
      ref_.push_back(r.objective);
    }
  }

  double pass(SpanLog& spans, WallSink* wall, Tally& tally,
              LayerCounts& layers) override {
    double sim = 0.0;
    rows_.clear();
    stats_.clear();
    for (std::size_t k = 0; k < lps_.size(); ++k) {
      Row row{.m = sizes_[k]};
      for (std::size_t e = 0; e < kEngineCount; ++e) {
        const Engine engine = kSweepEngines[e];
        const TimedSolve t =
            timed_solve(spans, wall, lps_[k], engine, {}, layers);
        const double tol = engine == Engine::kDeviceRevisedFloat ? 1e-3 : 1e-6;
        tally.check(t.result.optimal() &&
                        objectives_agree(t.result.objective, ref_[k], tol),
                    "dense-sweep m=" + std::to_string(row.m) + " " +
                        std::string(gs::simplex::to_string(engine)) +
                        " disagrees with the host reference");
        row.sim_ms[e] = 1e3 * t.result.stats.sim_seconds;
        if (e == 0) row.iterations = t.result.stats.iterations;
        sim += t.result.stats.sim_seconds;
        stats_.push_back(t.result.stats);
      }
      rows_.push_back(row);
    }
    return sim;
  }

  void traced_extras(SpanLog& /*spans*/, Tally& tally,
                     LayerCounts& layers) override {
    double weighted = 0.0, kernel_s = 0.0;
    for (std::size_t k = 0; k < lps_.size(); ++k) {
      for (std::size_t e = 0; e < kEngineCount; ++e) {
        if (!is_device_engine(kSweepEngines[e])) continue;
        profile_solve(lps_[k], kSweepEngines[e], {},
                      stats_[k * kEngineCount + e], tally, weighted,
                      kernel_s);
      }
    }
    layers.launch_bound_frac = kernel_s > 0.0 ? weighted / kernel_s : 0.0;
  }

  void end_to_end(MetricSet& out) const override {
    const Row& last = rows_.back();
    out.add("gpu_sim_ms_max", last.sim_ms[0], "ms");
    out.add("speedup_max", last.speedup(), "x");
    out.add("float_speedup_max", last.sim_ms[0] / last.sim_ms[1], "x");
    out.add("crossover_m", double(crossover()), "m");
  }

  void describe(std::ostream& os) const override {
    os << "     m  iters    gpu_ms  gpu_f32_ms    cpu_ms  tableau_ms  "
          "speedup\n";
    for (const Row& r : rows_) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "%6zu %6zu %9.6g %11.6g %9.6g %11.6g %8.4g\n", r.m,
                    r.iterations, r.sim_ms[0], r.sim_ms[1], r.sim_ms[2],
                    r.sim_ms[3], r.speedup());
      os << line;
    }
    os << "paper bands: crossover near m~500, GPU ahead by ~2-2.5x at the "
          "largest sizes. The machine model is calibrated to these bands; "
          "it has not been validated against hardware.\n";
  }

 private:
  /// Smallest size where the device engine is no slower than the host
  /// (0 when it never is).
  [[nodiscard]] std::size_t crossover() const {
    for (const Row& r : rows_) {
      if (r.speedup() >= 1.0) return r.m;
    }
    return 0;
  }

  Config cfg_;
  std::vector<std::size_t> sizes_;
  std::vector<gs::lp::LpProblem> lps_;
  std::vector<double> ref_;
  std::vector<Row> rows_;
  std::vector<gs::simplex::SolverStats> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_dense_sweep(const Config& cfg) {
  return std::make_unique<DenseSweep>(cfg);
}

}  // namespace e2e
