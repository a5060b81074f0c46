// The paper's contribution: revised simplex with every per-iteration
// linear-algebra operation executed as a data-parallel device kernel.
//
// State resident on the device across iterations (the design choice the
// paper's transfer analysis motivates):
//   * A^T           (dense or CSR via the At policy; transposed so column
//                   reads are contiguous)
//   * B^-1          dense m x m, updated in place by a rank-1 Gauss-Jordan
//                   elimination step each iteration (explicit-inverse
//                   scheme; a product-form eta file is the Ext. B ablation)
//   * beta = B^-1 b, pi, d, alpha, ratio vectors, pricing mask, c, c_B
//
// Only scalars cross the PCIe boundary each iteration: the chosen entering/
// leaving indices, theta, and the entering reduced cost. That per-iteration
// transfer latency is charged through the device's machine model and is a
// first-order term below the paper's crossover size.
//
// Template parameters: Real in {float, double} drives the Fig. 3 precision
// study; At in {DenseAt, SparseAt} selects the constraint-matrix storage
// (SparseRevisedSimplex below is the CSR instantiation, Ext. C).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "profile/profile.hpp"
#include "simplex/at_policy.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/primal_driver.hpp"
#include "simplex/types.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"
#include "vblas/containers.hpp"
#include "vblas/dot_rows.hpp"
#include "vblas/host_ref.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/primitives.hpp"

namespace gs::simplex {

/// Block body of the explicit inverse's rank-1 Gauss-Jordan update (the
/// engine's update_binv and pivot_apply launches) over rows [lo, hi):
///   row_p = prow / alpha_p;  row_i -= (alpha_i / alpha_p) * prow,
/// where prow is the saved pre-update pivot row. prow is read through a
/// raw pointer, annotated once per block and only if a row uses it. Rows
/// with f == 0 are untouched; with the default round_tol == 0 every other
/// row is one vectorized axpy.
template <typename Real>
void eliminate_rows(const vgpu::check::CheckedSpan<Real>& binv,
                    vgpu::check::CheckedSpan<const Real> prow,
                    vgpu::check::CheckedSpan<const Real> asp, std::size_t m,
                    std::size_t p, Real alpha_p, Real round_tol,
                    std::size_t lo, std::size_t hi) {
  const Real* pr = prow.data();
  bool prow_read = false;
  for (std::size_t i = lo; i < hi; ++i) {
    const Real f = i == p ? Real{0} : asp[i] / alpha_p;
    if (i != p && f == Real{0}) continue;
    if (!prow_read) {
      prow.read_range(0, m);
      prow_read = true;
    }
    Real* row = binv.data() + i * m;
    if (i == p) {
      binv.write_range(i * m, i * m + m);
      const Real inv = Real{1} / alpha_p;
      for (std::size_t j = 0; j < m; ++j) {
        Real v = pr[j] * inv;
        if (round_tol > Real{0} && std::abs(v) < round_tol) v = Real{0};
        row[j] = v;
      }
      continue;
    }
    binv.read_range(i * m, i * m + m);
    binv.write_range(i * m, i * m + m);
    if (round_tol > Real{0}) {
      for (std::size_t j = 0; j < m; ++j) {
        Real v = row[j] - f * pr[j];
        if (std::abs(v) < round_tol) v = Real{0};
        row[j] = v;
      }
    } else {
      vblas::axpy(-f, pr, row, m);
    }
  }
}

template <typename Real, template <typename> class At = DenseAt>
class DeviceRevisedSimplex {
 public:
  explicit DeviceRevisedSimplex(vgpu::Device& device,
                                SolverOptions options = {})
      : dev_(device), opt_(options) {}

  /// Solve a general-form LP (conversion + two-phase + recovery).
  [[nodiscard]] SolveResult solve(const lp::LpProblem& problem) {
    const lp::StandardFormLp sf = lp::to_standard_form(problem);
    return solve_standard(sf);
  }

  /// Solve a prepared standard form (used by benches that pre-scale).
  [[nodiscard]] SolveResult solve_standard(const lp::StandardFormLp& sf) {
    WallTimer wall;
    dev_.reset_stats();
    dev_.set_trace(profile::chain(opt_.profiler, opt_.trace_sink,
                                  trace::kDevicePid, dev_.model()));
    // Checker and capture are mutually exclusive sinks; detach the
    // checker first so re-attaching on a reused device can never trip the
    // exclusivity assert on a stale pointer.
    dev_.set_checker(nullptr);
    dev_.set_capture(opt_.analyzer);
    dev_.set_checker(opt_.checker);
    dev_.set_metrics(opt_.metrics);
    dev_.set_recorder(opt_.recorder);
    const trace::Track& tr = dev_.trace();
    const auto clock = [this] { return dev_.sim_seconds(); };
    if (tr.enabled()) tr.name_thread(engine_name());
    // Top-level span; its destructor runs after every nested span's, so
    // the trace unwinds in proper B/E order on any exit path.
    trace::ScopedSpan solve_span(tr, "solve", clock, "solve");
    const AugmentedLp aug = augment(sf);
    Workspace ws(dev_, aug, opt_);
    record::Recorder* rec = opt_.recorder;
    if (rec != nullptr) {
      rec->begin_solve(engine_name(), sizeof(Real) * 8, aug.m, aug.n_aug,
                       decision_digest(aug));
    }

    SolveResult result;
    // Recorder end-of-solve wrapper around finish(): stamps the status and
    // final basis, and triggers the post-mortem dump on a bad exit.
    auto fin = [&](SolveStatus status) -> SolveResult {
      if (rec != nullptr) {
        rec->end_solve(to_string(status), status == SolveStatus::kOptimal,
                       opt_.metrics ? opt_.metrics->warnings_total() : 0,
                       ws.basic);
      }
      result.basis = ws.basic;
      return finish(result, status, wall);
    };
    Steps steps{*this, ws,
                opt_.fused_iteration &&
                    opt_.basis == BasisScheme::kExplicitInverse};
    PrimalDriver driver(steps, aug, opt_, result.stats);
    const SolveStatus status = driver.run_phases(aug.num_artificial > 0);
    if (status != SolveStatus::kOptimal) return fin(status);

    // Extract the optimum: x_std from the basic values, then map back.
    const std::vector<Real> beta = ws.beta.to_host();
    std::vector<double> x_std(aug.n, 0.0);
    for (std::size_t i = 0; i < aug.m; ++i) {
      if (ws.basic[i] < aug.n) {
        x_std[ws.basic[i]] = static_cast<double>(beta[i]);
      }
    }
    result.x = sf.recover(x_std);
    double z = 0.0;
    for (std::size_t j = 0; j < aug.n; ++j) z += sf.c[j] * x_std[j];
    result.objective = sf.original_objective(z);
    // ws.pi still holds the optimal simplex multipliers (the loop priced,
    // found no entering candidate and stopped): they are the duals.
    const std::vector<Real> pi = ws.pi.to_host();
    result.y = sf.recover_duals(std::vector<double>(pi.begin(), pi.end()));
    return fin(SolveStatus::kOptimal);
  }

 private:
  static constexpr Real kInf = std::numeric_limits<Real>::infinity();

  /// Trace thread label (Chrome tid name) for this instantiation.
  [[nodiscard]] static std::string engine_name() {
    return std::string("device-revised<") +
           (sizeof(Real) == 4 ? "float" : "double") + ">";
  }

  /// All device-resident solver state for one solve.
  struct Workspace {
    Workspace(vgpu::Device& dev, const AugmentedLp& aug_in,
              const SolverOptions& opt)
        : aug(aug_in),
          m(aug_in.m),
          n_aug(aug_in.n_aug),
          at(dev, aug_in),
          binv(dev, m, m),
          beta(dev, m),
          b_dev(dev, m),
          pi(dev, m),
          cb(dev, m),
          c(dev, n_aug),
          d(dev, n_aug),
          mask(dev, n_aug),
          alpha(dev, m),
          ratio(dev, m),
          pivot_row(dev, m),
          scalar_tmp(dev, 1),
          eta_work(dev, m),
          devex_w(dev, n_aug),
          col_work(dev, n_aug),
          desc(dev, kDescSlots),
          basic(aug_in.basic),
          options(opt) {
      // Initial B^-1 and beta from the crash basis. The inverse starts
      // diagonal, so only the m diagonal entries cross PCIe; a device
      // kernel expands them into the dense m x m matrix (the full-matrix
      // upload was ~a third of all H2D bytes at bench scale).
      std::vector<Real> diag0(m), beta0(m), b0(m);
      for (std::size_t i = 0; i < m; ++i) {
        diag0[i] = static_cast<Real>(aug.binv_diag[i]);
        beta0[i] = static_cast<Real>(aug.beta_init[i]);
        b0[i] = static_cast<Real>(aug.b[i]);
      }
      vgpu::DeviceBuffer<Real> diag_dev(dev,
                                        std::span<const Real>(diag0));
      auto dsp = diag_dev.device_span();
      auto bi = binv.device_span();
      dev.launch_blocks(
          "binv_init", m, vgpu::Device::kBlockSize,
          {0.0, static_cast<double>((m * m + 2 * m) * sizeof(Real)),
           sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              bi.write_range(i * m, i * m + m);
              Real* row = bi.data() + i * m;
              for (std::size_t j = 0; j < m; ++j) row[j] = Real{0};
              row[i] = dsp[i];
            }
          });
      beta.upload(beta0);
      b_dev.upload(b0);
      in_basis.assign(n_aug, false);
      for (std::uint32_t col : basic) in_basis[col] = true;
      refresh_mask();
      vgpu::fill(devex_w, Real{1});
    }

    /// Install a phase cost vector (device c and c_B, host copy for swaps).
    void load_costs(const std::vector<double>& costs) {
      c_host.assign(costs.begin(), costs.end());
      std::vector<Real> cr(costs.size());
      for (std::size_t j = 0; j < costs.size(); ++j) {
        cr[j] = static_cast<Real>(costs[j]);
      }
      c.upload(cr);
      std::vector<Real> cbr(m);
      for (std::size_t i = 0; i < m; ++i) cbr[i] = cr[basic[i]];
      cb.upload(cbr);
    }

    /// Pricing mask: 1 for columns allowed to enter (nonbasic and never an
    /// artificial), 0 otherwise.
    void refresh_mask() {
      std::vector<Real> mv(n_aug);
      for (std::size_t j = 0; j < n_aug; ++j) {
        mv[j] = (!in_basis[j] && !aug.is_artificial[j]) ? Real{1} : Real{0};
      }
      mask.upload(mv);
    }

    /// Entering column q replaces row p's basic variable (host basis
    /// bookkeeping only); returns the leaving column.
    std::uint32_t exchange(std::size_t p, std::size_t q) {
      const std::uint32_t leaving = basic[p];
      basic[p] = static_cast<std::uint32_t>(q);
      in_basis[leaving] = false;
      in_basis[q] = true;
      return leaving;
    }

    /// Exact objective of the current phase costs at the current basis
    /// (recomputed from beta; avoids incremental drift).
    [[nodiscard]] double current_objective() const {
      const std::vector<Real> bv = beta.to_host();
      double z = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        z += c_host[basic[i]] * static_cast<double>(bv[i]);
      }
      return z;
    }

    const AugmentedLp& aug;
    std::size_t m, n_aug;

    At<Real> at;
    vblas::DeviceMatrix<Real> binv;
    vgpu::DeviceBuffer<Real> beta, b_dev, pi, cb, c, d, mask, alpha, ratio,
        pivot_row, scalar_tmp, eta_work;
    vgpu::DeviceBuffer<Real> devex_w;
    vgpu::DeviceBuffer<Real> col_work;  ///< n_aug scratch (scores, rows)
    /// Fused-path pivot descriptor (kDescSlots Reals): the iteration's
    /// entering/leaving decisions, filled on device, fetched with one d2h.
    vgpu::DeviceBuffer<Real> desc;

    /// Product-form eta file: one entry per pivot since the last
    /// reinversion. Dense schemes keep the full m-vector in `values`;
    /// the sparse-kernel scheme (SparseAt + product form) stores only the
    /// eta's support as (idx, val) pairs so the eta_apply kernels cost
    /// nnz instead of m.
    struct Eta {
      std::size_t p;
      std::optional<vgpu::DeviceBuffer<Real>> values;
      std::optional<vgpu::DeviceBuffer<std::uint32_t>> idx;
      std::optional<vgpu::DeviceBuffer<Real>> val;
    };
    std::vector<Eta> etas;

    std::vector<std::uint32_t> basic;
    std::vector<bool> in_basis;
    std::vector<double> c_host;
    SolverOptions options;
    std::size_t pivots_since_refactor = 0;
  };

  // ---------------------------------------------------------------------
  // Kernels (each one launch on the device, costed like its CUDA original)
  // ---------------------------------------------------------------------

  /// out = (B^-1)^T seed under the active basis scheme: under product
  /// form, the eta transposes newest-first, then (B0^-1)^T.
  void btran_generic(Workspace& ws, const vgpu::DeviceBuffer<Real>& seed,
                     vgpu::DeviceBuffer<Real>& out) {
    const vgpu::DeviceBuffer<Real>* y = &seed;
    if (!ws.etas.empty()) {
      auto ysp = ws.eta_work.device_span();
      auto ssp = seed.device_span();
      dev_.launch_blocks(
          "price_btran_seed", ws.m, vgpu::Device::kBlockSize,
          {0.0, bytes(2 * ws.m), sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ysp[i] = ssp[i];
          });
      for (auto it = ws.etas.rbegin(); it != ws.etas.rend(); ++it) {
        eta_btran_apply(ws, *it);
      }
      y = &ws.eta_work;
    }
    btran_base(ws, *y, out, sparse_pf(ws));
  }

  /// The sparse-kernel product-form scheme (SparseAt + product form).
  [[nodiscard]] static bool sparse_pf(const Workspace& ws) {
    return At<Real>::kSparseKernels &&
           ws.options.basis == BasisScheme::kProductForm;
  }

  void btran(Workspace& ws) { btran_generic(ws, ws.cb, ws.pi); }

  /// out = (B0^-1)^T y: block-local accumulation over columns so rows of
  /// B^-1 stream contiguously; zero rows of y are skipped. `sparse` is the
  /// sparse-kernel base: same arithmetic, launched as "sparse_btran" with
  /// cost declared from the seed's observed support — nnz(y) rows of
  /// B0^-1 stream instead of all m. The support count is host metadata,
  /// like the CSR extents in SparseAt.
  void btran_base(Workspace& ws, const vgpu::DeviceBuffer<Real>& y,
                   vgpu::DeviceBuffer<Real>& out, bool sparse = false) {
    const std::size_t m = ws.m;
    std::size_t rows = m;
    if (sparse) {
      const std::span<const Real> yh = y.host_view();
      rows = static_cast<std::size_t>(std::count_if(
          yh.begin(), yh.end(), [](Real v) { return v != Real{0}; }));
    }
    auto binv = ws.binv.device_span();
    auto ysp = y.device_span();
    auto pisp = out.device_span();
    dev_.launch_blocks(
        sparse ? "sparse_btran" : "price_btran", m, vgpu::Device::kBlockSize,
        {2.0 * double(rows) * double(m), bytes(rows * m + 2 * m),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          pisp.write_range(lo, hi);
          Real* pi = pisp.data();
          for (std::size_t j = lo; j < hi; ++j) pi[j] = Real{0};
          bool accumulated = false;
          for (std::size_t i = 0; i < m; ++i) {
            const Real yi = ysp[i];
            if (yi == Real{0}) continue;
            if (!accumulated) {
              pisp.read_range(lo, hi);
              accumulated = true;
            }
            binv.read_range(i * m + lo, i * m + hi);
            vblas::axpy(yi, binv.data() + i * m + lo, pi + lo, hi - lo);
          }
        });
  }

  /// alpha = B^-1 a_q (FTRAN). Under product form: B0^-1 a_q via the
  /// dense inverse, then the eta chain in order.
  void ftran(Workspace& ws, std::size_t q) {
    if (sparse_pf(ws)) {
      ws.at.ftran_alpha(ws.binv, q, ws.alpha, "sparse_ftran");
    } else {
      ws.at.ftran_alpha(ws.binv, q, ws.alpha);
    }
    for (const auto& eta : ws.etas) eta_ftran_apply(ws, eta);
  }

  /// Product-form FTRAN step: x = M x with M the eta matrix. x[p] is
  /// snapshotted by a tiny kernel first so all lanes read the pre-update
  /// value (as the CUDA original would). A sparse eta (sparse-kernel
  /// scheme) touches only its support, so the launch costs nnz flops/bytes
  /// instead of m; each entry has one writer (support indices are unique)
  /// — race-free under the checker.
  void eta_ftran_apply(Workspace& ws, const typename Workspace::Eta& eta) {
    auto xsp = ws.alpha.device_span();
    auto tmp = ws.scalar_tmp.device_span();
    const std::size_t p = eta.p;
    dev_.launch_blocks("eta_snapshot", 1, 1, {0.0, bytes(2), sizeof(Real)},
                       [&](std::size_t, std::size_t, std::size_t) {
                         tmp[0] = xsp[p];
                       });
    if (!eta.idx.has_value()) {
      auto esp = eta.values->device_span();
      dev_.launch_blocks(
          "eta_ftran", ws.m, vgpu::Device::kBlockSize,
          {2.0 * double(ws.m), bytes(3 * ws.m), sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            const Real xp = tmp[0];
            for (std::size_t i = lo; i < hi; ++i) {
              xsp[i] = (i == p) ? esp[i] * xp : xsp[i] + esp[i] * xp;
            }
          });
      return;
    }
    auto isp = eta.idx->device_span();
    auto vsp = eta.val->device_span();
    const std::size_t nnz = eta.val->size();
    dev_.launch_blocks(
        "eta_apply", nnz, vgpu::Device::kBlockSize,
        {2.0 * double(nnz),
         double(nnz * (2 * sizeof(Real) + sizeof(std::uint32_t)) +
                nnz * sizeof(Real) + 2 * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real xp = tmp[0];
          for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t i = isp[k];
            xsp[i] = (i == p) ? vsp[k] * xp : xsp[i] + vsp[k] * xp;
          }
        });
  }

  /// Product-form BTRAN step on ws.eta_work: y_p = eta . y, as a blocked
  /// dot (over the eta's support only, for a sparse eta) whose per-block
  /// partials combine in one tiny write kernel.
  void eta_btran_apply(Workspace& ws, const typename Workspace::Eta& eta) {
    auto ysp = ws.eta_work.device_span();
    const bool sparse = eta.idx.has_value();
    const std::size_t n = sparse ? eta.val->size() : ws.m;
    const std::size_t blocks =
        (n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    std::vector<Real> partial(blocks, Real{0});
    if (sparse) {
      auto isp = eta.idx->device_span();
      auto vsp = eta.val->device_span();
      dev_.launch_blocks(
          "eta_apply", n, vgpu::Device::kBlockSize,
          {2.0 * double(n),
           double(n * (2 * sizeof(Real) + sizeof(std::uint32_t))),
           sizeof(Real)},
          [&](std::size_t blk, std::size_t lo, std::size_t hi) {
            Real acc{0};
            for (std::size_t k = lo; k < hi; ++k) acc += vsp[k] * ysp[isp[k]];
            partial[blk] = acc;
          });
    } else {
      auto esp = eta.values->device_span();
      dev_.launch_blocks(
          "eta_btran_dot", n, vgpu::Device::kBlockSize,
          {2.0 * double(n), bytes(2 * n), sizeof(Real)},
          [&](std::size_t blk, std::size_t lo, std::size_t hi) {
            Real acc{0};
            for (std::size_t i = lo; i < hi; ++i) acc += esp[i] * ysp[i];
            partial[blk] = acc;
          });
    }
    const std::size_t p = eta.p;
    dev_.launch_blocks("eta_btran_write", 1, 1,
                       {double(blocks), bytes(blocks + 1), sizeof(Real)},
                       [&](std::size_t, std::size_t, std::size_t) {
                         Real acc{0};
                         for (std::size_t b = 0; b < blocks; ++b)
                           acc += partial[b];
                         ysp[p] = acc;
                       });
  }

  /// ratio_i = beta_i / alpha_i where alpha_i > pivot_tol, else +inf.
  void ratio_test_kernel(Workspace& ws) {
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto rsp = ws.ratio.device_span();
    const Real tol = static_cast<Real>(ws.options.pivot_tol);
    dev_.launch_blocks(
        "ratio", ws.m, vgpu::Device::kBlockSize,
        {double(ws.m), bytes(3 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            rsp[i] = asp[i] > tol ? bsp[i] / asp[i] : kInf;
          }
        });
  }

  /// beta update after the pivot: beta_p = theta, beta_i -= theta*alpha_i.
  void update_beta(Workspace& ws, std::size_t p, Real theta) {
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    const Real round_tol = static_cast<Real>(ws.options.round_tol);
    dev_.launch_blocks(
        "update_beta", ws.m, vgpu::Device::kBlockSize,
        {2.0 * double(ws.m), bytes(3 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            Real v = (i == p) ? theta : bsp[i] - theta * asp[i];
            if (round_tol > Real{0} && std::abs(v) < round_tol) v = Real{0};
            // The ratio test guarantees v >= 0 in exact arithmetic; clamp
            // the rounding dust so the basis stays primal feasible.
            bsp[i] = v < Real{0} ? Real{0} : v;
          }
        });
  }

  /// Copy row p of B^-1 into ws.pivot_row.
  void save_pivot_row(Workspace& ws, std::size_t p) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    dev_.launch_blocks(
        "save_pivot_row", m, vgpu::Device::kBlockSize,
        {0.0, bytes(2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) prow[j] = binv[p * m + j];
        });
  }

  /// Rank-1 Gauss-Jordan update of the explicit inverse:
  ///   row_p /= alpha_p;  row_i -= (alpha_i / alpha_p) * old row_p.
  /// Requires save_pivot_row(p) to have run.
  void update_binv(Workspace& ws, std::size_t p, Real alpha_p) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    const Real round_tol = static_cast<Real>(ws.options.round_tol);
    dev_.launch_blocks(
        "update_binv", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(2 * m * m + 2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          eliminate_rows<Real>(binv, prow, asp, m, p, alpha_p, round_tol, lo,
                               hi);
        });
  }

  // -------------------------------------------------------------------
  // Fused iteration kernels (SolverOptions::fused_iteration). Same
  // arithmetic as the reference kernels above, collapsed so one iteration
  // costs 5 launches (6 with Devex) and ONE scalar-sized PCIe readback.
  // -------------------------------------------------------------------

  /// Fused save_pivot_row + update_beta: one m-wide launch snapshots the
  /// pre-update pivot row of B^-1 and steps beta past the pivot.
  void pivot_stage(Workspace& ws, std::size_t p, Real theta) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    const Real round_tol = static_cast<Real>(ws.options.round_tol);
    dev_.launch_blocks(
        "pivot_stage", m, vgpu::Device::kBlockSize,
        {2.0 * double(m), bytes(5 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            prow[i] = binv[p * m + i];
            Real v = (i == p) ? theta : bsp[i] - theta * asp[i];
            if (round_tol > Real{0} && std::abs(v) < round_tol) v = Real{0};
            bsp[i] = v < Real{0} ? Real{0} : v;
          }
        });
  }

  /// Fused rank-1 update of B^-1 + the pivot's scalar bookkeeping. The
  /// reference path's three upload_value round trips (c_B[p], mask[q] off,
  /// mask[leaving] on) ride along as kernel arguments written by the pivot
  /// lane — zero per-iteration H2D traffic. The saved pivot row is read
  /// through a raw pointer (annotated once per block), so the default
  /// round_tol == 0 elimination is a branch-free axpy that vectorizes.
  void pivot_apply(Workspace& ws, std::size_t q, std::size_t p, Real alpha_p,
                   Real cb_new, std::size_t leaving, bool unmask_leaving) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    auto csp = ws.cb.device_span();
    auto msp = ws.mask.device_span();
    const Real round_tol = static_cast<Real>(ws.options.round_tol);
    dev_.launch_blocks(
        "pivot_apply", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(2 * m * m + 2 * m + 4),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          eliminate_rows<Real>(binv, prow, asp, m, p, alpha_p, round_tol, lo,
                               hi);
          if (p >= lo && p < hi) {
            // One writer each: the pivot lane owns the scalar pokes.
            csp[p] = cb_new;
            msp[q] = Real{0};
            if (unmask_leaving) msp[leaving] = Real{1};
          }
        });
  }

  /// Product-form: append the eta for this pivot instead of updating B^-1.
  void append_eta(Workspace& ws, std::size_t p, Real alpha_p) {
    if (sparse_pf(ws)) {
      append_eta_sparse(ws, p, alpha_p);
      return;
    }
    vgpu::DeviceBuffer<Real> eta(dev_, ws.m);
    auto asp = ws.alpha.device_span();
    auto esp = eta.device_span();
    dev_.launch_blocks(
        "make_eta", ws.m, vgpu::Device::kBlockSize,
        {double(ws.m), bytes(2 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real inv = Real{1} / alpha_p;
          for (std::size_t i = lo; i < hi; ++i) {
            esp[i] = (i == p) ? inv : -asp[i] * inv;
          }
        });
    ws.etas.push_back({p, std::move(eta)});
  }

  /// Sparse-kernel eta append: the support is alpha's nonzero pattern.
  /// The index list is host metadata (the CUDA original would run a
  /// stream compaction; like the CSR extents in SparseAt it is read
  /// outside the machine model), while the eta values themselves are
  /// computed on device from alpha so the arithmetic stays in-model.
  void append_eta_sparse(Workspace& ws, std::size_t p, Real alpha_p) {
    const std::span<const Real> ah = ws.alpha.host_view();
    std::vector<std::uint32_t> support;
    for (std::uint32_t i = 0; i < ws.m; ++i) {
      if (ah[i] != Real{0} || i == p) support.push_back(i);
    }
    const std::size_t nnz = support.size();
    vgpu::DeviceBuffer<std::uint32_t> idx(
        dev_, std::span<const std::uint32_t>(support));
    vgpu::DeviceBuffer<Real> val(dev_, nnz);
    auto asp = ws.alpha.device_span();
    auto isp = idx.device_span();
    auto vsp = val.device_span();
    dev_.launch_blocks(
        "make_eta", nnz, vgpu::Device::kBlockSize,
        {double(nnz),
         double(nnz * (2 * sizeof(Real) + sizeof(std::uint32_t))),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real inv = Real{1} / alpha_p;
          for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t i = isp[k];
            vsp[k] = (i == p) ? inv : -asp[i] * inv;
          }
        });
    ws.etas.push_back({p, std::nullopt, std::move(idx), std::move(val)});
  }

  /// Assemble the current basis matrix from the augmented problem's rows.
  [[nodiscard]] vblas::Matrix<double> assemble_basis(const Workspace& ws) const {
    const std::size_t m = ws.m;
    std::vector<std::int64_t> pos_of_col(ws.n_aug, -1);
    for (std::size_t i = 0; i < m; ++i) {
      pos_of_col[ws.basic[i]] = std::int64_t(i);
    }
    vblas::Matrix<double> basis(m, m);
    const lp::StandardFormLp& sf = *ws.aug.source;
    for (std::size_t r = 0; r < m; ++r) {
      for (const lp::Term& t : sf.rows[r]) {
        const std::int64_t pos = pos_of_col[t.var];
        if (pos >= 0) basis(r, static_cast<std::size_t>(pos)) = t.coef;
      }
    }
    for (std::size_t k = 0; k < ws.aug.num_artificial; ++k) {
      const std::int64_t pos = pos_of_col[ws.aug.n + k];
      if (pos >= 0) {
        basis(ws.aug.artificial_rows[k], static_cast<std::size_t>(pos)) = 1.0;
      }
    }
    return basis;
  }

  /// Rebuild B^-1 from the current basis columns (host Gauss-Jordan in
  /// double for exactness; charged as a device O(m^3) elimination). Resets
  /// the eta file and refreshes beta = B^-1 b.
  void reinvert(Workspace& ws) {
    const std::size_t m = ws.m;
    const vblas::Matrix<double> inv = vblas::ref::invert(assemble_basis(ws));
    auto binv = ws.binv.device_span();
    dev_.launch_blocks(
        "reinvert", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m) * double(m), bytes(3 * m * m),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          binv.write_range(lo * m, hi * m);
          std::transform(inv.flat().begin() + std::ptrdiff_t(lo * m),
                         inv.flat().begin() + std::ptrdiff_t(hi * m),
                         binv.data() + lo * m,
                         [](double v) { return static_cast<Real>(v); });
        });
    ws.etas.clear();
    ws.pivots_since_refactor = 0;
    // beta = B^-1 b (clamped: the basis is primal feasible by invariant).
    auto bsp = ws.b_dev.device_span();
    auto betasp = ws.beta.device_span();
    dev_.launch_blocks(
        "refresh_beta", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(m * m + 2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          std::array<Real, vgpu::Device::kBlockSize> dots;
          binv.read_range(lo * m, hi * m);
          bsp.read_range(0, m);
          vblas::dot_rows(binv.data(), m, lo, hi, bsp.data(), m, dots.data());
          for (std::size_t i = lo; i < hi; ++i) {
            const Real acc = dots[i - lo];
            betasp[i] = acc < Real{0} ? Real{0} : acc;
          }
        });
  }

  // ---------------------------------------------------------------------
  // Pricing
  // ---------------------------------------------------------------------

  /// Pick the entering column (or nullopt at optimality). `use_bland`
  /// overrides the configured rule during degeneracy streaks.
  [[nodiscard]] std::optional<std::size_t> select_entering(Workspace& ws,
                                                           bool use_bland) {
    const Real tol = static_cast<Real>(ws.options.opt_tol);
    if (use_bland || ws.options.pricing == PricingRule::kBland) {
      const auto hit = vgpu::find_first_below(ws.d, -tol);
      if (!hit.found()) return std::nullopt;
      return hit.index;
    }
    if (ws.options.pricing == PricingRule::kDevex) {
      auto dsp = ws.d.device_span();
      auto wsp = ws.devex_w.device_span();
      auto ssp = ws.col_work.device_span();
      dev_.launch_blocks(
          "devex_score", ws.n_aug, vgpu::Device::kBlockSize,
          {3.0 * double(ws.n_aug), bytes(3 * ws.n_aug), sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
              ssp[j] = dsp[j] < -tol ? -(dsp[j] * dsp[j]) / wsp[j] : Real{0};
            }
          });
      const auto best = vgpu::argmin(ws.col_work);
      if (!best.found() || best.value >= Real{0}) return std::nullopt;
      return best.index;
    }
    // Dantzig: most negative reduced cost.
    const auto best = vgpu::argmin(ws.d);
    if (!best.found() || best.value >= -tol) return std::nullopt;
    return best.index;
  }

  /// pivot_row <- row `i` of B^-1 under the active basis scheme: a cheap
  /// row copy for the explicit inverse, a unit-vector BTRAN otherwise.
  void compute_binv_row(Workspace& ws, std::size_t i) {
    if (ws.options.basis == BasisScheme::kExplicitInverse) {
      save_pivot_row(ws, i);
      return;
    }
    // ws.ratio is free at every call site; use it as the unit seed.
    auto seed = ws.ratio.device_span();
    dev_.launch_blocks(
        "unit_seed", ws.m, vgpu::Device::kBlockSize,
        {0.0, bytes(ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            seed[k] = k == i ? Real{1} : Real{0};
          }
        });
    btran_generic(ws, ws.ratio, ws.pivot_row);
  }

  /// Devex weight maintenance (uses the pre-update B^-1 row p).
  void devex_update(Workspace& ws, std::size_t q, std::size_t p,
                    Real alpha_p) {
    // alpha-tilde_j = (B^-1 A)_pj for all columns: one pricing-shaped pass
    // against the pivot row of the current inverse.
    compute_binv_row(ws, p);
    ws.at.pivot_row_product(ws.pivot_row, ws.col_work);
    const Real wq = ws.devex_w.download_value(q);
    auto wsp = ws.devex_w.device_span();
    auto msp = ws.mask.device_span();
    auto rsp = ws.col_work.device_span();
    dev_.launch_blocks(
        "devex_update", ws.n_aug, vgpu::Device::kBlockSize,
        {4.0 * double(ws.n_aug), bytes(3 * ws.n_aug), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            if (msp[j] == Real{0}) continue;
            const Real t = rsp[j] / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[j]) wsp[j] = cand;
          }
        });
    // The leaving variable re-enters the nonbasic pool with the reference
    // weight of the pivot.
    const Real w_leave = std::max(wq / (alpha_p * alpha_p), Real{1});
    ws.devex_w.upload_value(ws.basic[p], w_leave);
  }

  /// Apply one basis exchange with the reference kernels: entering column
  /// q replaces row p's variable.
  void pivot(Workspace& ws, std::size_t q, std::size_t p, Real theta,
             Real alpha_p) {
    update_beta(ws, p, theta);
    if (ws.options.basis == BasisScheme::kExplicitInverse) {
      save_pivot_row(ws, p);
      update_binv(ws, p, alpha_p);
    } else {
      append_eta(ws, p, alpha_p);
    }
    const std::uint32_t leaving = ws.exchange(p, q);
    // Scalar traffic: c_B[p], mask[q] off, mask[leaving] on (unless it is an
    // artificial, which never re-enters).
    ws.cb.upload_value(p, static_cast<Real>(ws.c_host[q]));
    ws.mask.upload_value(q, Real{0});
    if (!ws.aug.is_artificial[leaving]) {
      ws.mask.upload_value(leaving, Real{1});
    }
  }

  // ---------------------------------------------------------------------
  // The primal step set (primal_driver.hpp runs the iteration)
  // ---------------------------------------------------------------------

  /// The device engine's steps. The reference kernels serve product form
  /// and the unfused explicit inverse; `fused` selects the explicit-
  /// inverse fused chain, per iteration
  ///   price_btran -> price_select -> ftran_ratio -> [descriptor d2h]
  ///   -> pivot_stage -> [devex_update_fused] -> pivot_apply.
  /// Its pivot sequence is bit-identical to the reference kernels' — the
  /// fused selections share the primitives' block-scan semantics and the
  /// device-side acceptance tests mirror the host ones — so recordings
  /// diff clean against the reference path (tests/test_fusion.cpp).
  /// Drive-out always runs the reference kernels.
  struct Steps {
    DeviceRevisedSimplex& e;
    Workspace& ws;
    bool fused;
    std::array<Real, kDescSlots> desc{};  ///< fused: host copy of ws.desc
    std::vector<Real> row_w{};            ///< drive-out row of B^-1 A

    [[nodiscard]] const trace::Track& track() const {
      return e.dev_.trace();
    }
    [[nodiscard]] double now() const { return e.dev_.sim_seconds(); }
    /// Exact objective from a charged download of beta.
    [[nodiscard]] double objective() const { return ws.current_objective(); }
    void load_costs(const std::vector<double>& costs) {
      ws.load_costs(costs);
    }
    [[nodiscard]] std::uint32_t basic_at(std::size_t i) const {
      return ws.basic[i];
    }
    [[nodiscard]] bool is_basic(std::size_t j) const {
      return ws.in_basis[j];
    }

    StepResult price(bool bland, Pivot& pv) {
      if (fused) {
        const EnteringRule rule =
            bland ? EnteringRule::kBland
                  : (ws.options.pricing == PricingRule::kDevex
                         ? EnteringRule::kDevex
                         : EnteringRule::kDantzig);
        e.btran_base(ws, ws.cb, ws.pi);
        ws.at.price_select(ws.pi, ws.c, ws.mask, ws.d, ws.col_work,
                           ws.devex_w, ws.desc, rule,
                           static_cast<Real>(ws.options.opt_tol));
        return StepResult::kContinue;  // the descriptor decides in ratio()
      }
      e.btran(ws);
      ws.at.price(ws.pi, ws.c, ws.mask, ws.d);
      const std::optional<std::size_t> q = e.select_entering(ws, bland);
      if (!q.has_value()) return StepResult::kOptimal;
      pv.q = *q;
      pv.d_q = static_cast<double>(ws.d.download_value(*q));
      return StepResult::kContinue;
    }

    void ftran(const Pivot& pv) {
      if (fused) {
        // Speculative: issued before the host knows whether pricing found
        // a candidate; the kernel early-exits on-device when it did not.
        ws.at.ftran_ratio_select(ws.binv, ws.beta, ws.alpha, ws.ratio,
                                 ws.desc,
                                 static_cast<Real>(ws.options.pivot_tol));
      } else {
        ftran_column(pv.q);
      }
    }
    void ftran_column(std::size_t q) { e.ftran(ws, q); }

    StepResult ratio(Pivot& pv) {
      if (fused) {
        // The iteration's ONLY PCIe transfer: one packed descriptor.
        ws.desc.download(std::span<Real>(desc.data(), desc.size()));
        if (desc[kDescQ] < Real{0}) return StepResult::kOptimal;
        // Zero-row edge: the ratio kernel is an empty grid (never
        // launched), so the leaving slots are meaningless.
        if (ws.m == 0 || desc[kDescTheta] == kInf) {
          return StepResult::kUnbounded;
        }
        pv = {static_cast<std::size_t>(desc[kDescQ]),
              static_cast<std::size_t>(desc[kDescP]), desc[kDescDq],
              desc[kDescTheta], desc[kDescAlphaP]};
        return StepResult::kContinue;
      }
      e.ratio_test_kernel(ws);
      const vgpu::ArgResult<Real> leave = vgpu::argmin(ws.ratio);
      if (!leave.found() || leave.value == kInf) return StepResult::kUnbounded;
      pv.p = leave.index;
      pv.theta = static_cast<double>(leave.value);
      return StepResult::kContinue;
    }

    /// Reference path: alpha_p's scalar readback. Fused: already in the
    /// descriptor.
    void pivot_element(Pivot& pv) {
      if (!fused) pv.alpha_p = pivot_value(pv.p);
    }
    double pivot_value(std::size_t row) {
      return static_cast<double>(ws.alpha.download_value(row));
    }

    /// Counted through host_view() — outside the machine model, so
    /// recording charges no PCIe time and perturbs nothing.
    [[nodiscard]] std::uint32_t ratio_ties(const Pivot& pv) const {
      const std::span<const Real> rv = ws.ratio.host_view();
      const Real theta = static_cast<Real>(pv.theta);
      return static_cast<std::uint32_t>(std::count(rv.begin(), rv.end(),
                                                   theta));
    }

    void update(const Pivot& pv) {
      const Real theta = static_cast<Real>(pv.theta);
      const Real alpha_p = static_cast<Real>(pv.alpha_p);
      const bool devex = ws.options.pricing == PricingRule::kDevex;
      if (fused) {
        const std::uint32_t leaving = ws.exchange(pv.p, pv.q);
        e.pivot_stage(ws, pv.p, theta);
        if (devex) {
          ws.at.devex_update(ws.pivot_row, ws.mask, ws.devex_w, pv.q,
                             leaving, alpha_p);
        }
        e.pivot_apply(ws, pv.q, pv.p, alpha_p,
                      static_cast<Real>(ws.c_host[pv.q]), leaving,
                      !ws.aug.is_artificial[leaving]);
      } else {
        if (devex) e.devex_update(ws, pv.q, pv.p, alpha_p);
        e.pivot(ws, pv.q, pv.p, theta, alpha_p);
      }
      ++ws.pivots_since_refactor;
    }
    void drive_out_pivot(const Pivot& pv) {
      e.pivot(ws, pv.q, pv.p, Real{0}, static_cast<Real>(pv.alpha_p));
    }

    /// Explicit inverse: the opt-in refactor_period sheds rounding drift.
    /// Product form: reinversion_period (default m) bounds the eta file.
    [[nodiscard]] bool wants_refactor() const {
      const std::size_t period =
          ws.options.basis == BasisScheme::kExplicitInverse
              ? ws.options.refactor_period
              : (ws.options.reinversion_period > 0
                     ? ws.options.reinversion_period
                     : ws.m);
      return period > 0 && ws.pivots_since_refactor >= period;
    }
    bool refactor() {
      e.reinvert(ws);
      return true;
    }

    /// Reads device state through host_view() — outside the machine
    /// model, so sampling charges no PCIe time and perturbs nothing.
    ///
    /// Explicit inverse: probe `probes` entries of B·B⁻¹ − I — for a
    /// probed (i, j), row i of B comes straight from the standard form's
    /// sparse rows (plus any basic artificial on that row), so one probe
    /// is O(nnz(row i)); the max |probe| is a cheap lower-bound estimate
    /// of `‖B·B⁻¹ − I‖∞` that tracks drift in the rank-1 update. Growth
    /// is the max |B⁻¹| over the probed rows. Product form has no
    /// drifting inverse to probe; it reports the eta-file length instead.
    [[nodiscard]] HealthProbe probe_health(std::size_t iter,
                                           std::size_t probes) const {
      HealthProbe h;
      if (ws.options.basis != BasisScheme::kExplicitInverse) {
        h.eta_count = ws.etas.size();
        return h;
      }
      const std::size_t m = ws.m;
      const std::span<const Real> binv = ws.binv.buffer().host_view();
      std::vector<std::int64_t> pos_of_col(ws.n_aug, -1);
      for (std::size_t k = 0; k < m; ++k) {
        pos_of_col[ws.basic[k]] = static_cast<std::int64_t>(k);
      }
      const lp::StandardFormLp& sf = *ws.aug.source;
      const std::size_t step = std::max<std::size_t>(1, m / probes);
      for (std::size_t t = 0; t < probes; ++t) {
        // Rotate the probed rows with the iteration so successive samples
        // cover different parts of the inverse; alternate diagonal and
        // off-diagonal targets.
        const std::size_t i = (iter + t * step) % m;
        const std::size_t j = (t % 2 == 0) ? i : (i + 1) % m;
        double acc = 0.0;
        for (const lp::Term& term : sf.rows[i]) {
          const std::int64_t k = pos_of_col[term.var];
          if (k >= 0) {
            acc += term.coef * static_cast<double>(
                                   binv[static_cast<std::size_t>(k) * m + j]);
          }
        }
        for (std::size_t a = 0; a < ws.aug.num_artificial; ++a) {
          if (ws.aug.artificial_rows[a] != i) continue;
          const std::int64_t k = pos_of_col[ws.aug.n + a];
          if (k >= 0) {
            acc += static_cast<double>(
                binv[static_cast<std::size_t>(k) * m + j]);
          }
        }
        h.residual = std::max(h.residual, std::abs(acc - (i == j ? 1.0 : 0.0)));
        for (std::size_t col = 0; col < m; ++col) {
          h.growth = std::max(
              h.growth, std::abs(static_cast<double>(binv[i * m + col])));
        }
      }
      return h;
    }

    void drive_out_row(std::size_t i) {
      e.compute_binv_row(ws, i);
      ws.at.pivot_row_product(ws.pivot_row, ws.col_work);
      row_w = ws.col_work.to_host();
    }
    [[nodiscard]] double row_weight(std::size_t j) const {
      return static_cast<double>(row_w[j]);
    }
  };

  SolveResult& finish(SolveResult& result, SolveStatus status,
                      WallTimer& wall) {
    result.status = status;
    result.stats.wall_seconds = wall.seconds();
    result.stats.device_stats = dev_.stats();
    result.stats.sim_seconds = dev_.sim_seconds();
    return result;
  }

  [[nodiscard]] static constexpr double bytes(std::size_t n) noexcept {
    return static_cast<double>(n * sizeof(Real));
  }

  vgpu::Device& dev_;
  SolverOptions opt_;
};

/// The Ext. C sparse instantiation: CSR constraint matrix, dense B^-1.
template <typename Real>
using SparseRevisedSimplex = DeviceRevisedSimplex<Real, SparseAt>;

}  // namespace gs::simplex
