// sparse-basis: the basis layer on a sparse instance.
//
// random_sparse_lp 512 x 2048 at density 0.005, solved by the CSR device
// engine with the explicit inverse and with the product form, and by the
// host primal and dual engines with the product form. The pass then
// drives both BasisOracle implementations directly on the instance's
// optimal basis: refactorize, then rounds of btran / ftran / update. The
// eta file, sparse LU, CSR kernels and the device product-form launch
// tax do most of the work; the dense explicit device path barely runs.
#include <cmath>
#include <ostream>

#include "lp/generators.hpp"
#include "lp/standard_form.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using gs::simplex::BasisScheme;
using gs::simplex::Engine;

struct Variant {
  Engine engine;
  BasisScheme basis;
};
constexpr Variant kVariants[] = {
    {Engine::kSparseRevised, BasisScheme::kExplicitInverse},
    {Engine::kSparseRevised, BasisScheme::kProductForm},
    {Engine::kHostRevised, BasisScheme::kProductForm},
    {Engine::kDualRevised, BasisScheme::kProductForm},
};

std::string variant_name(const Variant& v) {
  return std::string(gs::simplex::to_string(v.engine)) + "/" +
         std::string(gs::simplex::to_string(v.basis));
}

/// Per-call wall totals of one oracle over a pass.
struct OracleWall {
  double ftran = 0, btran = 0, update = 0, refactorize = 0;
  std::size_t calls = 0, refactors = 0;
};

class SparseBasis final : public Workload {
 public:
  explicit SparseBasis(const Config& cfg)
      : cfg_(cfg),
        rows_(cfg.tiny ? 64 : 512),
        cols_(cfg.tiny ? 256 : 2048),
        rounds_(cfg.tiny ? 8 : 64) {}

  void setup(SpanLog& spans) override {
    {
      Span span(spans, "lp.generate");
      lp_ = seeded_layout(gs::lp::random_sparse_lp({.rows = rows_,
                                                    .cols = cols_,
                                                    .density = 0.005,
                                                    .seed = 1}),
                          cfg_.seed);
    }
    Span span(spans, "lp.to_standard_form");
    sf_ = gs::lp::to_standard_form(lp_);
    aug_ = gs::simplex::augment(sf_);
    at_ = aug_.csr_at();
  }

  void reference(SpanLog& spans) override {
    Span span(spans, "simplex.reference");
    const auto r = gs::simplex::solve(lp_, Engine::kHostRevised);
    GS_CHECK_MSG(r.optimal() && r.basis.size() == aug_.m,
                 "sparse-basis: reference solve not optimal");
    ref_ = r.objective;
    optimal_basis_ = r.basis;
  }

  double pass(SpanLog& spans, WallSink* wall, Tally& tally,
              LayerCounts& layers) override {
    double sim = 0.0;
    results_.clear();
    for (const Variant& v : kVariants) {
      gs::simplex::SolverOptions opt;
      opt.basis = v.basis;
      const TimedSolve t =
          timed_solve(spans, wall, lp_, v.engine, opt, layers);
      tally.check(t.result.optimal() &&
                      objectives_agree(t.result.objective, ref_, 1e-6),
                  "sparse-basis " + variant_name(v) +
                      " disagrees with the host reference");
      sim += t.result.stats.sim_seconds;
      results_.push_back(t.result.stats);
    }
    sim += drive_oracles(spans, tally, layers);
    return sim;
  }

  void traced_extras(SpanLog& /*spans*/, Tally& tally,
                     LayerCounts& layers) override {
    double weighted = 0.0, kernel_s = 0.0;
    for (std::size_t i = 0; i < std::size(kVariants); ++i) {
      if (!is_device_engine(kVariants[i].engine)) continue;
      gs::simplex::SolverOptions opt;
      opt.basis = kVariants[i].basis;
      profile_solve(lp_, kVariants[i].engine, opt, results_[i], tally,
                    weighted, kernel_s);
    }
    layers.launch_bound_frac = kernel_s > 0.0 ? weighted / kernel_s : 0.0;
  }

  void end_to_end(MetricSet& out) const override {
    out.add("product_form_sim_ms", 1e3 * results_[1].sim_seconds, "ms");
    out.add("explicit_inverse_sim_ms", 1e3 * results_[0].sim_seconds, "ms");
  }

  void describe(std::ostream& os) const override {
    os << "instance " << rows_ << "x" << cols_ << " density 0.005, "
       << lp_.num_nonzeros() << " nonzeros\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      os << "  " << variant_name(kVariants[i]) << ": "
         << results_[i].iterations << " iterations, "
         << 1e3 * results_[i].sim_seconds << " ms modeled, "
         << results_[i].device_stats.kernel_launches << " launches\n";
    }
  }

 private:
  /// Direct BasisOracle calls on the optimal basis: one refactorize, then
  /// `rounds_` btran / ftran / update rounds along a deterministic pivot
  /// sequence. Every ftran is verified (B alpha = a_q) on the first and
  /// last round. Returns the oracles' modeled seconds.
  double drive_oracles(SpanLog& spans, Tally& tally, LayerCounts& layers) {
    namespace basis = gs::simplex::basis;
    const basis::CsrColumnSource cols(at_);
    const gs::simplex::SolverOptions opt;
    double sim = 0.0;
    for (int which = 0; which < 2; ++which) {
      gs::simplex::CostMeter meter(gs::vgpu::cpu2009_model());
      std::unique_ptr<basis::BasisOracle> oracle;
      if (which == 0) {
        oracle = std::make_unique<basis::ExplicitInverseOracle>(
            aug_.m, aug_.binv_diag, cols, meter, opt);
      } else {
        oracle = std::make_unique<basis::ProductFormOracle>(
            aug_.m, aug_.basic, cols, meter, opt);
      }
      const std::string name = oracle->name();
      OracleWall w;
      std::vector<std::uint32_t> basis_now = optimal_basis_;
      const auto refactor = [&] {
        Span span(spans, "basis." + name + ".refactorize");
        const double t0 = now_s();
        const bool ok = oracle->refactorize(basis_now);
        w.refactorize += now_s() - t0;
        ++w.refactors;
        return ok;
      };
      tally.check(refactor(), "sparse-basis: " + name +
                                  " could not factorize the optimal basis");
      run_rounds(*oracle, cols, basis_now, refactor, spans, tally, w);
      const double calls = double(std::max<std::size_t>(1, w.calls));
      layers.oracle[name + ".ftran_us"] = 1e6 * w.ftran / calls;
      layers.oracle[name + ".btran_us"] = 1e6 * w.btran / calls;
      layers.oracle[name + ".update_us"] = 1e6 * w.update / calls;
      layers.oracle[name + ".refactorize_ms"] =
          1e3 * w.refactorize / double(w.refactors);
      if (which == 1) {
        layers.eta_count = double(oracle->eta_count());
        layers.refactor_count = double(oracle->refactor_count());
      }
      sim += meter.sim_seconds();
    }
    return sim;
  }

  template <typename Refactor>
  void run_rounds(gs::simplex::basis::BasisOracle& oracle,
                  const gs::simplex::basis::ColumnSource& cols,
                  std::vector<std::uint32_t>& basis_now, Refactor& refactor,
                  SpanLog& spans, Tally& tally, OracleWall& w) const {
    const std::size_t m = aug_.m;
    const std::string name = oracle.name();
    std::vector<double> cb(m, 0.0), pi(m), col(m), alpha(m);
    for (std::size_t k = 0; k < rounds_; ++k) {
      cb[(k * 7) % m] = 1.0;
      {
        Span span(spans, "basis." + name + ".btran");
        const double t0 = now_s();
        oracle.btran(cb, pi);
        w.btran += now_s() - t0;
      }
      cb[(k * 7) % m] = 0.0;
      const auto q =
          static_cast<std::uint32_t>((k * 131 + 17) % aug_.n_aug);
      std::fill(col.begin(), col.end(), 0.0);
      cols.gather(q, col);
      {
        Span span(spans, "basis." + name + ".ftran");
        const double t0 = now_s();
        oracle.ftran(col, alpha);
        w.ftran += now_s() - t0;
      }
      if (k == 0 || k + 1 == rounds_) {
        tally.check(residual(cols, basis_now, alpha, col) < 1e-8,
                    "sparse-basis: " + name + " ftran residual too large");
      }
      std::size_t p = 0;
      for (std::size_t i = 1; i < m; ++i) {
        if (std::abs(alpha[i]) > std::abs(alpha[p])) p = i;
      }
      ++w.calls;
      if (std::abs(alpha[p]) < 1e-6) continue;
      {
        Span span(spans, "basis." + name + ".update");
        const double t0 = now_s();
        oracle.update(p, alpha);
        w.update += now_s() - t0;
      }
      basis_now[p] = q;
      if (oracle.wants_refactor()) {
        tally.check(refactor(), "sparse-basis: " + name + " refactor failed");
      }
    }
  }

  /// max_i |(B alpha - a_q)_i| relative to max(1, |a_q|_inf).
  static double residual(const gs::simplex::basis::ColumnSource& cols,
                         const std::vector<std::uint32_t>& basis_now,
                         const std::vector<double>& alpha,
                         const std::vector<double>& aq) {
    const std::size_t m = aq.size();
    std::vector<double> acc(m, 0.0), bcol(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (alpha[i] == 0.0) continue;
      std::fill(bcol.begin(), bcol.end(), 0.0);
      cols.gather(basis_now[i], bcol);
      for (std::size_t r = 0; r < m; ++r) acc[r] += alpha[i] * bcol[r];
    }
    double err = 0.0, scale = 1.0;
    for (std::size_t r = 0; r < m; ++r) {
      err = std::max(err, std::abs(acc[r] - aq[r]));
      scale = std::max(scale, std::abs(aq[r]));
    }
    return err / scale;
  }

  Config cfg_;
  std::size_t rows_, cols_, rounds_;
  gs::lp::LpProblem lp_;
  gs::lp::StandardFormLp sf_;
  gs::simplex::AugmentedLp aug_;
  gs::sparse::CsrMatrix<double> at_;
  double ref_ = 0.0;
  std::vector<std::uint32_t> optimal_basis_;
  std::vector<gs::simplex::SolverStats> results_;
};

}  // namespace

std::unique_ptr<Workload> make_sparse_basis(const Config& cfg) {
  return std::make_unique<SparseBasis>(cfg);
}

}  // namespace e2e
