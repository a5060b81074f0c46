// service-mix: mixed small-LP traffic through SolveService.
//
// A closed loop with one client: it submits a burst of 128 requests
// (below the default queue_capacity of 256), drains, reads every result,
// and only then sends the next burst; 16 bursts, 2048 requests. Each
// burst mixes
//   - 64 same-shape m=48 instances with distinct seeds (one batch round),
//   - exact repeats of the previous burst's host singles (warm hits),
//   - rhs-only perturbations of other previous singles (warm-basis
//     dispatches whose cached family entry really is the same A),
//   - only with --false-family: new instances with the shape of yet other
//     previous singles but a different A (warm-basis dispatches on a false
//     family match; see README.md for why the default mix leaves them out),
//   - distinct host singles of m, n in [80, 111], every shape new,
//   - one m=512 device single in each of the first 8 bursts (fixed
//     generator seeds in a seeded row/column order, see setup()),
//   - two transportation LPs (equality rows, so phase 1 runs),
//   - one infeasible_example or unbounded_example.
// The submission order is chosen so the warm cache (64 LRU entries) holds
// exactly the previous burst's host singles when the next burst arrives.
#include <ostream>
#include <set>

#include "lp/generators.hpp"
#include "lp/standard_form.hpp"
#include "metrics/quantile.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using gs::service::Route;
using gs::simplex::SolveStatus;

/// One request of the mix. `instance` indexes the distinct LPs (an exact
/// repeat shares its original's instance and reference answer).
struct Request {
  std::size_t instance = 0;
  const char* kind = "single";
  SolveStatus expect = SolveStatus::kOptimal;
};

struct Shape {
  std::size_t m = 0, n = 0;
};

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Config& cfg)
      : cfg_(cfg),
        bursts_(cfg.tiny ? 3 : 16),
        burst_size_(cfg.tiny ? 40 : 128),
        batch_lanes_(cfg.tiny ? 8 : 64),
        batch_m_(cfg.tiny ? 12 : 48),
        warm_each_(cfg.tiny ? 2 : 8),
        device_m_(cfg.tiny ? 64 : 512),
        device_bursts_(cfg.tiny ? 1 : 8),
        single_lo_(cfg.tiny ? 20 : 80) {}

  void setup(SpanLog& spans) override {
    {
      Span span(spans, "lp.generate");
      generate();
    }
    for (const gs::lp::LpProblem& lp : lps_) {
      Span sf(spans, "lp.to_standard_form");
      (void)gs::lp::to_standard_form(lp);
    }
  }

  /// Draw the bursts: every instance and its place in the mix.
  void generate() {
    lps_.clear();
    bursts_req_.assign(bursts_, {});
    gs::Xoshiro256 rng(cfg_.seed);
    const auto next_seed = [&] { return rng.next(); };
    // Every host-single shape is used once; a seeded order over the grid.
    std::vector<Shape> grid;
    for (std::size_t m = single_lo_; m < single_lo_ + 32; ++m) {
      for (std::size_t n = single_lo_; n < single_lo_ + 32; ++n) {
        grid.push_back({m, n});
      }
    }
    for (std::size_t i = grid.size(); i > 1; --i) {
      std::swap(grid[i - 1], grid[std::size_t(rng.uniform_int(
                                  0, std::int64_t(i - 1)))]);
    }
    std::size_t next_shape = 0;
    std::set<std::pair<std::size_t, std::size_t>> transport_shapes;
    const auto dense = [&](std::size_t m, std::size_t n) {
      lps_.push_back(
          gs::lp::random_dense_lp({.rows = m, .cols = n, .seed = next_seed()}));
      return lps_.size() - 1;
    };

    std::vector<std::size_t> prev_singles;
    for (std::size_t b = 0; b < bursts_; ++b) {
      std::vector<Request>& burst = bursts_req_[b];
      std::vector<std::size_t> singles;
      if (b < device_bursts_) {
        // Submitted first, so 64+ later insertions evict it from the cache.
        // Generator seeds 1..8 in a seeded layout: a device solve takes
        // 90-210 iterations depending on the generator seed, and eight of
        // them would otherwise dominate the run-to-run spread.
        lps_.push_back(seeded_layout(
            gs::lp::random_dense_lp(
                {.rows = device_m_, .cols = device_m_, .seed = b + 1}),
            cfg_.seed));
        burst.push_back({lps_.size() - 1, "device"});
      }
      lps_.push_back(b % 2 == 0 ? gs::lp::infeasible_example()
                                : gs::lp::unbounded_example());
      burst.push_back({lps_.size() - 1, "toy",
                       b % 2 == 0 ? SolveStatus::kInfeasible
                                  : SolveStatus::kUnbounded});
      for (int t = 0; t < 2; ++t) {
        std::pair<std::size_t, std::size_t> sc;
        do {
          sc = {std::size_t(rng.uniform_int(4, 12)),
                std::size_t(rng.uniform_int(4, 12))};
        } while (!transport_shapes.insert(sc).second);
        lps_.push_back(
            gs::lp::transportation(sc.first, sc.second, next_seed()));
        burst.push_back({lps_.size() - 1, "transport"});
      }
      if (prev_singles.size() >= 3 * warm_each_) {
        for (std::size_t k = 0; k < warm_each_; ++k) {
          burst.push_back({prev_singles[k], "repeat"});
        }
        for (std::size_t k = warm_each_; k < 2 * warm_each_; ++k) {
          lps_.push_back(rhs_perturbed(lps_[prev_singles[k]], rng));
          burst.push_back({lps_.size() - 1, "rhs-perturbed"});
        }
        for (std::size_t k = 2 * warm_each_;
             cfg_.false_family && k < 3 * warm_each_; ++k) {
          const std::size_t m = lps_[prev_singles[k]].num_constraints();
          const std::size_t n = lps_[prev_singles[k]].num_variables();
          burst.push_back({dense(m, n), "false-family"});
        }
      }
      for (std::size_t k = 0; k < batch_lanes_; ++k) {
        burst.push_back({dense(batch_m_, batch_m_), "batch"});
      }
      while (burst.size() < burst_size_) {
        const Shape s = grid[next_shape++];
        singles.push_back(dense(s.m, s.n));
        burst.push_back({singles.back()});
      }
      prev_singles = std::move(singles);
    }
    requests_ = bursts_ * burst_size_;
  }

  void reference(SpanLog& spans) override {
    ref_.assign(lps_.size(), 0.0);
    status_.assign(lps_.size(), SolveStatus::kNumericalTrouble);
    for (std::size_t i = 0; i < lps_.size(); ++i) {
      Span span(spans, "simplex.reference");
      const auto r =
          gs::simplex::solve(lps_[i], gs::simplex::Engine::kHostRevised);
      ref_[i] = r.objective;
      status_[i] = r.status;
    }
  }

  double pass(SpanLog& spans, WallSink* /*wall*/, Tally& tally,
              LayerCounts& layers) override {
    // A per-request trace sink would force single dispatch and change the
    // routing, so this workload is traced from spans, SolveResult stats
    // and the service's own metrics registry only.
    gs::metrics::MetricsRegistry registry;
    gs::service::SolveService svc({}, &registry);
    latencies_ms_.clear();
    makespan_s_ = 0.0;
    accepted_ = 0;
    double sim = 0.0, submit_s = 0.0, engine_wall = 0.0, drain_wall = 0.0;
    std::vector<double> queue_ms, engine_ms;
    std::size_t batch_lane_total = 0;
    for (const std::vector<Request>& burst : bursts_req_) {
      std::vector<gs::service::Ticket> tickets;
      for (const Request& req : burst) {
        gs::service::SolveRequest sr;
        sr.problem = lps_[req.instance];
        const double t0 = now_s();
        Span span(spans, "service.submit");
        tickets.push_back(svc.submit(std::move(sr)));
        submit_s += now_s() - t0;
        span.set_request(tickets.back().id);
      }
      {
        Span span(spans, "service.drain");
        const double t0 = now_s();
        svc.drain();
        drain_wall += now_s() - t0;
      }
      double makespan = 0.0;
      std::set<double> rounds_seen;
      for (std::size_t i = 0; i < burst.size(); ++i) {
        const Request& req = burst[i];
        const gs::service::Ticket& t = tickets[i];
        if (!tally.check(t.accepted, "service-mix: request rejected")) {
          latencies_ms_.push_back(kMissed);
          continue;
        }
        ++accepted_;
        Span span(spans, "service.result", t.id);
        const gs::service::ServiceResult& r = svc.result(t.id);
        if (!check(req, r, tally)) {
          latencies_ms_.push_back(kMissed);
          continue;
        }
        latencies_ms_.push_back(1e3 * r.latency_seconds);
        makespan = std::max(makespan, r.latency_seconds);
        const std::string route(gs::service::to_string(r.route));
        layers.routes[route] += 1.0;
        if (r.route == Route::kWarmHit) continue;  // no solve ran
        queue_ms.push_back(1e3 * r.queue_seconds);
        engine_ms.push_back(1e3 * r.engine_seconds);
        // A batch round reports its whole-round stats on every lane.
        const double share =
            r.route == Route::kBatch ? 1.0 / double(r.batch_lanes) : 1.0;
        const gs::simplex::SolverStats& st = r.solve.stats;
        sim += share * st.sim_seconds;
        engine_wall += share * st.wall_seconds;
        layers.add_engine(engine_of(r.route), share * st.wall_seconds, st);
        if (r.route == Route::kBatch) ++batch_lane_total;
        // Lanes of one round share its start on the device timeline.
        if (r.route == Route::kDevice ||
            (r.route == Route::kBatch &&
             rounds_seen.insert(r.queue_seconds).second)) {
          layers.add_device(st.device_stats, st.iterations, st.wall_seconds,
                            st.sim_seconds);
        }
      }
      makespan_s_ += makespan;
    }
    const auto counter = [&](const char* name) {
      return registry.counter(name).value();
    };
    layers.batch_rounds = counter("service.batch.rounds");
    layers.batch_fill =
        layers.batch_rounds > 0
            ? double(batch_lane_total) /
                  (layers.batch_rounds * double(svc.policy().batch_target))
            : 0.0;
    layers.warm_hits = counter("service.warm.hit");
    layers.warm_lookups = layers.warm_hits + counter("service.warm.miss");
    layers.warm_basis = counter("service.dispatch.warm-basis");
    layers.warm_fallback = counter("service.warm.fallback");
    layers.rejected = counter("service.rejected");
    layers.deadline_missed = counter("service.deadline.missed");
    std::sort(queue_ms.begin(), queue_ms.end());
    std::sort(engine_ms.begin(), engine_ms.end());
    layers.queue_p50_ms = gs::metrics::quantile_sorted(queue_ms, 0.50);
    layers.queue_p99_ms = gs::metrics::quantile_sorted(queue_ms, 0.99);
    layers.engine_p50_ms = gs::metrics::quantile_sorted(engine_ms, 0.50);
    layers.engine_p99_ms = gs::metrics::quantile_sorted(engine_ms, 0.99);
    layers.submit_us = 1e6 * submit_s / double(requests_);
    layers.drain_overhead_ms = 1e3 * (drain_wall - engine_wall);
    warm_basis_ = layers.warm_basis;
    warm_fallback_ = layers.warm_fallback;
    routes_ = layers.routes;
    return sim;
  }

  void end_to_end(MetricSet& out) const override {
    std::vector<double> lat = latencies_ms_;
    std::sort(lat.begin(), lat.end());
    out.add("latency_p50_ms", gs::metrics::quantile_sorted(lat, 0.50), "ms");
    out.add("latency_p99_ms", gs::metrics::quantile_sorted(lat, 0.99), "ms");
    out.add("latency_samples", double(lat.size()), "count");
    out.add("req_per_s", makespan_s_ > 0 ? double(accepted_) / makespan_s_ : 0,
            "req/s");
  }

  void describe(std::ostream& os) const override {
    os << bursts_ << " bursts x " << burst_size_ << " requests, "
       << lps_.size() << " distinct LPs; routes:";
    for (const auto& [route, n] : routes_) os << " " << route << "=" << n;
    os << "\nwarm-basis dispatches " << warm_basis_ << ", fell back to a cold "
       << "solve " << warm_fallback_ << "\n";
  }

 private:
  static constexpr double kMissed = std::numeric_limits<double>::infinity();

  static std::string_view engine_of(Route r) {
    switch (r) {
      case Route::kHost: return "host-revised";
      case Route::kDevice: return "device-revised";
      case Route::kBatch: return "batch";
      case Route::kWarmBasis: return "dual-revised";
      case Route::kWarmHit: break;
    }
    return "";
  }

  bool check(const Request& req, const gs::service::ServiceResult& r,
             Tally& tally) const {
    const SolveStatus want = req.expect;
    if (!tally.check(r.solve.status == want && status_[req.instance] == want,
                     "service-mix: wrong status " +
                         std::string(gs::simplex::to_string(r.solve.status)) +
                         " on " + req.kind + " " +
                         lps_[req.instance].name())) {
      return false;
    }
    if (want != SolveStatus::kOptimal) return true;
    return tally.check(
        objectives_agree(r.solve.objective, ref_[req.instance], 1e-6),
        "service-mix: objective disagrees with the host reference on " +
            lps_[req.instance].name());
  }

  /// Same A and c, every rhs scaled by a factor in [0.95, 1.05]: the
  /// origin stays feasible, the digest changes, the shape does not.
  static gs::lp::LpProblem rhs_perturbed(const gs::lp::LpProblem& p,
                                         gs::Xoshiro256& rng) {
    gs::lp::LpProblem out(p.objective(), p.name() + "_rhs");
    for (const gs::lp::Variable& v : p.variables()) {
      out.add_variable(v.name, v.objective_coef, v.lower, v.upper);
    }
    for (const gs::lp::Constraint& c : p.constraints()) {
      out.add_constraint(c.name, c.terms, c.sense,
                         c.rhs * rng.uniform(0.95, 1.05));
    }
    return out;
  }

  Config cfg_;
  std::size_t bursts_, burst_size_, batch_lanes_, batch_m_, warm_each_;
  std::size_t device_m_, device_bursts_, single_lo_;
  std::vector<gs::lp::LpProblem> lps_;
  std::vector<std::vector<Request>> bursts_req_;
  std::size_t requests_ = 0;
  std::vector<double> ref_;
  std::vector<SolveStatus> status_;
  // Last pass.
  std::vector<double> latencies_ms_;
  double makespan_s_ = 0.0;
  std::size_t accepted_ = 0;
  double warm_basis_ = 0.0, warm_fallback_ = 0.0;
  std::map<std::string, double> routes_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const Config& cfg) {
  return std::make_unique<ServiceMix>(cfg);
}

}  // namespace e2e
