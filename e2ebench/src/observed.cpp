// observed: what each observer costs on one solve.
//
// random_dense_lp m = n = 384 on the device engine, bare and then with
// each of the seven engine observers attached on its own; then the host
// engine bare and with recorder + metrics + telemetry + profiler. Every
// observed run must reproduce the bare run's modeled result bit for bit,
// the checker and analyzer must find nothing, and the profiler must
// reconcile with DeviceStats. No other workload attaches an observer.
#include <cstdio>
#include <ostream>

#include "lp/generators.hpp"
#include "lp/standard_form.hpp"
#include "observers.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using gs::simplex::Engine;

constexpr unsigned kHostObservers = kRecord | kMetrics | kTelemetry | kProfile;

bool same_model(const gs::simplex::SolveResult& a,
                const gs::simplex::SolveResult& b) {
  const gs::vgpu::DeviceStats& x = a.stats.device_stats;
  const gs::vgpu::DeviceStats& y = b.stats.device_stats;
  return a.status == b.status && a.objective == b.objective &&
         a.stats.iterations == b.stats.iterations &&
         a.stats.sim_seconds == b.stats.sim_seconds &&
         x.kernel_launches == y.kernel_launches &&
         x.kernel_seconds == y.kernel_seconds &&
         x.h2d_bytes == y.h2d_bytes && x.d2h_bytes == y.d2h_bytes &&
         x.transfer_seconds() == y.transfer_seconds();
}

class Observed final : public Workload {
 public:
  explicit Observed(const Config& cfg) : cfg_(cfg), m_(cfg.tiny ? 32 : 384) {}

  void setup(SpanLog& spans) override {
    {
      Span span(spans, "lp.generate");
      lp_ = seeded_layout(
          gs::lp::random_dense_lp({.rows = m_, .cols = m_, .seed = 1}),
          cfg_.seed);
    }
    Span span(spans, "lp.to_standard_form");
    (void)gs::lp::to_standard_form(lp_);
  }

  void reference(SpanLog& spans) override {
    Span span(spans, "simplex.reference");
    const auto r = gs::simplex::solve(lp_, Engine::kHostRevised);
    GS_CHECK_MSG(r.optimal(), "observed: reference solve not optimal");
    ref_ = r.objective;
  }

  double pass(SpanLog& spans, WallSink* wall, Tally& tally,
              LayerCounts& layers) override {
    double sim = 0.0;
    const TimedSolve bare =
        timed_solve(spans, wall, lp_, Engine::kDeviceRevised, {}, layers);
    tally.check(bare.result.optimal() &&
                    objectives_agree(bare.result.objective, ref_, 1e-6),
                "observed: bare device solve disagrees with the reference");
    sim += bare.result.stats.sim_seconds;
    for (const auto& [mask, name] : kObserverNames) {
      const Run run = observed_run(spans, Engine::kDeviceRevised, mask, name,
                                   bare.result, tally);
      sim += run.sim;
      if (wall == nullptr) {
        walls_[std::string(name)].push_back(run.wall_s / bare.wall_s);
      }
      if (mask == kTrace) layers.trace_events = double(run.trace_events);
      if (mask == kRecord) layers.record_bytes = double(run.record_bytes);
      if (mask == kProfile) launch_bound_ = run.launch_bound;
    }
    const TimedSolve host =
        timed_solve(spans, wall, lp_, Engine::kHostRevised, {}, layers);
    tally.check(host.result.optimal() &&
                    objectives_agree(host.result.objective, ref_, 1e-6),
                "observed: bare host solve disagrees with the reference");
    sim += host.result.stats.sim_seconds;
    const Run run = observed_run(spans, Engine::kHostRevised, kHostObservers,
                                 "host-observers", host.result, tally);
    sim += run.sim;
    if (wall == nullptr) host_x_.push_back(run.wall_s / host.wall_s);
    return sim;
  }

  void traced_extras(SpanLog& /*spans*/, Tally& /*tally*/,
                     LayerCounts& layers) override {
    // Ratios from the untraced passes: a traced bare solve would carry the
    // benchmark's own sink and understate every observer's cost.
    for (const auto& [name, xs] : walls_) layers.observer_x[name] = median(xs);
    layers.launch_bound_frac = launch_bound_;
  }

  void end_to_end(MetricSet& /*out*/) const override {}

  void describe(std::ostream& os) const override {
    os << "device-revised m=n=" << m_
       << " bare, then each observer alone; host-revised bare and with "
          "recorder+metrics+telemetry+profiler. Wall with / bare (median):";
    for (const auto& [name, xs] : walls_) os << " " << name << " " << median(xs);
    os << "; host observers " << median(host_x_) << "\n";
  }

 private:
  struct Run {
    double wall_s = 0.0;
    double sim = 0.0;
    std::size_t trace_events = 0, record_bytes = 0;
    double launch_bound = 0.0;
  };

  Run observed_run(SpanLog& spans, Engine engine, unsigned mask,
                   std::string_view name,
                   const gs::simplex::SolveResult& bare, Tally& tally) const {
    Observers obs(mask);
    const gs::simplex::SolverOptions opt = obs.attach({});
    Run run;
    const double t0 = now_s();
    gs::simplex::SolveResult r;
    {
      Span span(spans, "observe." + std::string(name));
      r = gs::simplex::solve(lp_, engine, opt);
    }
    run.wall_s = now_s() - t0;
    run.sim = r.stats.sim_seconds;
    const std::string what =
        "observed: " + std::string(name) + " on " +
        std::string(gs::simplex::to_string(engine));
    tally.check(same_model(r, bare), what + " changed the modeled result");
    tally.check(obs.checker_clean(), what + ": checker findings");
    tally.check(obs.analyzer_clean(), what + ": analyzer findings");
    tally.check(obs.profile_reconciles(r.stats.device_stats),
                what + ": profile does not reconcile with DeviceStats");
    run.trace_events = obs.trace_events();
    run.record_bytes = obs.record_bytes();
    run.launch_bound = obs.launch_bound_fraction();
    return run;
  }

  Config cfg_;
  std::size_t m_;
  gs::lp::LpProblem lp_;
  double ref_ = 0.0;
  std::map<std::string, std::vector<double>> walls_;
  std::vector<double> host_x_;
  double launch_bound_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_observed(const Config& cfg) {
  return std::make_unique<Observed>(cfg);
}

}  // namespace e2e
