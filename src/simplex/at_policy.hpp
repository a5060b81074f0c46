// Constraint-matrix access policies for the device revised simplex engine.
//
// The engine is generic over how the (augmented, transposed) constraint
// matrix A^T is stored on the device:
//   * DenseAt  — dense n_aug x m row-major (the paper's layout), and
//   * SparseAt — CSR (the follow-on sparse variant, Ext. C).
// A policy supplies the kernels whose cost depends on the storage: the
// reduced-cost sweep, FTRAN's B^-1 a_q product, the pivot-row product used
// by Devex pricing and artificial drive-out, and — for the fused iteration
// path (SolverOptions::fused_iteration) — the collapsed pricing+selection
// and FTRAN+ratio+selection launches that write the on-device
// PivotDescriptor instead of round-tripping scalars over PCIe.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "simplex/phase_setup.hpp"
#include "sparse/device_csr.hpp"
#include "vblas/containers.hpp"
#include "vblas/dot_rows.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/primitives.hpp"

namespace gs::simplex {

// ---------------------------------------------------------------------
// Fused-iteration pivot descriptor (SolverOptions::fused_iteration).
//
// All per-iteration decisions accumulate in a 5-slot device buffer and
// cross PCIe as ONE packed d2h per iteration. Indices are encoded as Real
// (exact up to 2^24 even in float); kDescNone (-1) marks "no candidate".
// ---------------------------------------------------------------------
inline constexpr std::size_t kDescQ = 0;       ///< entering column, or -1
inline constexpr std::size_t kDescDq = 1;      ///< reduced cost d_q
inline constexpr std::size_t kDescP = 2;       ///< leaving row, or -1
inline constexpr std::size_t kDescTheta = 3;   ///< ratio-test step length
inline constexpr std::size_t kDescAlphaP = 4;  ///< pivot element alpha_p
inline constexpr std::size_t kDescSlots = 5;
// (Ratio ties are observational — the recorder counts them through
// host_view() outside the machine model, same as the reference path, so
// they never ride in the descriptor or cost a device-side rescan.)

/// Entering-variable rule for one fused pricing launch (the hybrid rule
/// resolves to Dantzig or Bland per iteration on the host).
enum class EnteringRule { kDantzig, kBland, kDevex };

namespace fused_detail {

/// Apply the reference path's host-side acceptance test to the block/
/// combine argmin result and write the entering decision into the
/// descriptor. d_q is always reported from the reduced-cost span, exactly
/// like the reference path's `d.download_value(q)`.
template <typename Real, typename DSpan, typename DescSpan>
void write_entering(EnteringRule rule, Real tol, std::size_t best_idx,
                    Real best_val, const DSpan& d, DescSpan& desc) {
  bool none = false;
  switch (rule) {
    case EnteringRule::kBland:
      none = best_idx == vgpu::detail::kNoIndex;
      break;
    case EnteringRule::kDevex:
      none = best_val >= Real{0};  // best devex score
      break;
    case EnteringRule::kDantzig:
      none = best_val >= -tol;  // most negative reduced cost
      break;
  }
  if (none) {
    desc[kDescQ] = Real{-1};
    desc[kDescDq] = Real{0};
  } else {
    desc[kDescQ] = static_cast<Real>(best_idx);
    desc[kDescDq] = d[best_idx];
  }
}

/// Cross-block combine for the fused pricing selection, launched only
/// when the column sweep spans more than one block. Reduces the per-block
/// partials with the primitives' combine semantics (block order, strict
/// <; first hit for Bland) so the winner is bit-identical to
/// vgpu::argmin / find_first_below over the full buffer.
template <typename Real, typename DSpan, typename DescSpan>
void combine_entering(vgpu::Device& dev, EnteringRule rule, Real tol,
                      const std::vector<std::size_t>& part_idx,
                      const std::vector<Real>& part_val, DSpan d,
                      DescSpan desc) {
  const std::size_t blocks = part_idx.size();
  dev.launch_blocks(
      "price_select_final", 1, 1,
      {static_cast<double>(blocks),
       static_cast<double>(blocks * (sizeof(Real) + sizeof(std::size_t)) +
                           2 * sizeof(Real)),
       sizeof(Real)},
      [&](std::size_t, std::size_t, std::size_t) {
        std::size_t best = vgpu::detail::kNoIndex;
        Real val{0};
        if (rule == EnteringRule::kBland) {
          for (std::size_t b = 0; b < blocks; ++b) {
            if (part_idx[b] != vgpu::detail::kNoIndex) {
              best = part_idx[b];
              break;
            }
          }
        } else {
          best = part_idx[0];
          val = part_val[0];
          for (std::size_t b = 1; b < blocks; ++b) {
            if (part_val[b] < val) {
              best = part_idx[b];
              val = part_val[b];
            }
          }
        }
        write_entering(rule, tol, best, val, d, desc);
      });
}

/// Finalize the fused ratio test: pick the leaving row from the block
/// partials (argmin semantics) and write the descriptor. Runs inline in
/// the single-block case; as a small combine launch otherwise.
template <typename Real, typename RSpan, typename ASpan, typename DescSpan>
void write_leaving(std::size_t best, const RSpan& ratio, const ASpan& alpha,
                   DescSpan& desc) {
  desc[kDescP] = static_cast<Real>(best);
  desc[kDescTheta] = ratio[best];
  desc[kDescAlphaP] = alpha[best];
}

template <typename Real, typename RSpan, typename ASpan, typename DescSpan>
void combine_leaving(vgpu::Device& dev,
                     const std::vector<std::size_t>& part_idx,
                     const std::vector<Real>& part_val, RSpan ratio,
                     ASpan alpha, DescSpan desc) {
  const std::size_t blocks = part_idx.size();
  dev.launch_blocks(
      "ftran_ratio_final", 1, 1,
      {static_cast<double>(blocks),
       static_cast<double>(blocks * (sizeof(Real) + sizeof(std::size_t)) +
                           5 * sizeof(Real)),
       sizeof(Real)},
      [&](std::size_t, std::size_t, std::size_t) {
        if (desc[kDescQ] < Real{0}) return;  // speculative: nothing entered
        std::size_t best = part_idx[0];
        Real val = part_val[0];
        for (std::size_t b = 1; b < blocks; ++b) {
          if (part_val[b] < val) {
            best = part_idx[b];
            val = part_val[b];
          }
        }
        write_leaving<Real>(best, ratio, alpha, desc);
      });
}

}  // namespace fused_detail

/// Dense A^T policy: contiguous column reads, BLAS-2-shaped kernels.
template <typename Real>
class DenseAt {
 public:
  /// Dense storage keeps the paper's m-proportional kernel names; the
  /// sparse basis-kernel variants (sparse_ftran / sparse_btran /
  /// eta_apply) only make sense when column extents are known.
  static constexpr bool kSparseKernels = false;

  DenseAt(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m), n_aug_(aug.n_aug), at_(dev, host_at(aug)) {}

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }

  /// d_j = mask_j ? c_j - a_j . pi : 0  for every column j.
  void price(const vgpu::DeviceBuffer<Real>& pi,
             const vgpu::DeviceBuffer<Real>& c,
             const vgpu::DeviceBuffer<Real>& mask,
             vgpu::DeviceBuffer<Real>& d) const {
    column_products("price_reduced", pi, &c, &mask, d);
  }

  /// out_j = a_j . y for every column j (Devex pivot row / drive-out row).
  void pivot_row_product(const vgpu::DeviceBuffer<Real>& y,
                         vgpu::DeviceBuffer<Real>& out) const {
    column_products("pivot_row_product", y, nullptr, nullptr, out);
  }

  /// alpha = B^-1 a_q (dense gemv against the contiguous column a_q).
  /// `name` lets basis schemes label their FTRAN variant in the stream.
  void ftran_alpha(const vblas::DeviceMatrix<Real>& binv, std::size_t q,
                   vgpu::DeviceBuffer<Real>& alpha,
                   std::string_view name = "ftran") const {
    const std::size_t m = m_;
    auto at = at_.device_span();
    auto bs = binv.device_span();
    auto as = alpha.device_span();
    device().launch_blocks(
        name, m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m),
         double((m * m + 2 * m) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          BlockDots dots;
          binv_rows_dot_aq(at, bs, q, lo, hi, dots);
          for (std::size_t i = lo; i < hi; ++i) as[i] = dots[i - lo];
        });
  }

  // -------------------------------------------------------------------
  // Fused iteration path (SolverOptions::fused_iteration)
  // -------------------------------------------------------------------

  /// Fused pricing: reduced costs, rule-specific selection scan and the
  /// entering decision in ONE launch (price_reduced + devex_score +
  /// argmin/find_first_below of the reference path). Writes desc[kDescQ]
  /// and desc[kDescDq]; the block-scan semantics match the primitives',
  /// so the chosen column is bit-identical to the unfused chain.
  void price_select(const vgpu::DeviceBuffer<Real>& pi,
                    const vgpu::DeviceBuffer<Real>& c,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& d,
                    vgpu::DeviceBuffer<Real>& score,
                    const vgpu::DeviceBuffer<Real>& devex_w,
                    vgpu::DeviceBuffer<Real>& desc, EnteringRule rule,
                    Real tol) const {
    const std::size_t m = m_;
    const std::size_t n = n_aug_;
    const std::size_t blocks =
        (n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    // Per-block partials live host-side, like the primitives' reductions:
    // invisible to the machine model, combined by a separate small launch.
    std::vector<std::size_t> part_idx(blocks, vgpu::detail::kNoIndex);
    std::vector<Real> part_val(blocks, Real{0});
    auto at = at_.device_span();
    auto ys = pi.device_span();
    auto cs = c.device_span();
    auto ms = mask.device_span();
    auto ds = d.device_span();
    auto ss = score.device_span();
    auto wsp = devex_w.device_span();
    auto desc_s = desc.device_span();
    device().launch_blocks(
        "price_select", n, vgpu::Device::kBlockSize,
        {2.0 * double(n) * double(m) + 4.0 * double(n),
         double((n * m + 6 * n + m) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          // Reduced costs, exactly as price() computes them.
          sweep_block(at, ys, cs, ms, ds, lo, hi);
          // Rule-specific selection over this block's columns.
          std::size_t best = vgpu::detail::kNoIndex;
          Real val{0};
          if (rule == EnteringRule::kBland) {
            best = vgpu::detail::block_first_below(ds, lo, hi, -tol);
          } else if (rule == EnteringRule::kDevex) {
            for (std::size_t j = lo; j < hi; ++j) {
              ss[j] = ds[j] < -tol ? -(ds[j] * ds[j]) / wsp[j] : Real{0};
            }
            best = vgpu::detail::block_argmin(ss, lo, hi);
            val = ss[best];
          } else {
            best = vgpu::detail::block_argmin(ds, lo, hi);
            val = ds[best];
          }
          if (blocks == 1) {
            fused_detail::write_entering(rule, tol, best, val, ds, desc_s);
          } else {
            part_idx[blk] = best;
            part_val[blk] = val;
          }
        });
    if (blocks > 1) {
      fused_detail::combine_entering(device(), rule, tol, part_idx, part_val,
                                     ds, desc_s);
    }
  }

  /// Fused FTRAN + ratio test + leaving selection in ONE launch. The
  /// entering column index is read from the descriptor ON DEVICE — the
  /// launch is speculative (issued before the host has seen whether
  /// pricing found a candidate) and early-exits when desc[kDescQ] < 0.
  /// Writes desc[kDescP/kDescTheta/kDescAlphaP]; alpha and ratio are
  /// still materialized for the basis update and observers.
  void ftran_ratio_select(const vblas::DeviceMatrix<Real>& binv,
                          const vgpu::DeviceBuffer<Real>& beta,
                          vgpu::DeviceBuffer<Real>& alpha,
                          vgpu::DeviceBuffer<Real>& ratio,
                          vgpu::DeviceBuffer<Real>& desc,
                          Real pivot_tol) const {
    const std::size_t m = m_;
    const std::size_t blocks =
        (m + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    std::vector<std::size_t> part_idx(blocks, vgpu::detail::kNoIndex);
    std::vector<Real> part_val(blocks, Real{0});
    auto at = at_.device_span();
    auto bs = binv.device_span();
    auto be = beta.device_span();
    auto as = alpha.device_span();
    auto rs = ratio.device_span();
    auto desc_s = desc.device_span();
    constexpr Real kRInf = std::numeric_limits<Real>::infinity();
    device().launch_blocks(
        "ftran_ratio", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m) + 3.0 * double(m),
         double((m * m + 7 * m + 2) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          if (desc_s[kDescQ] < Real{0}) return;  // optimal: nothing entered
          const std::size_t q = static_cast<std::size_t>(desc_s[kDescQ]);
          BlockDots dots;
          binv_rows_dot_aq(at, bs, q, lo, hi, dots);
          for (std::size_t i = lo; i < hi; ++i) {
            const Real acc = dots[i - lo];
            as[i] = acc;
            rs[i] = acc > pivot_tol ? be[i] / acc : kRInf;
          }
          const std::size_t best = vgpu::detail::block_argmin(rs, lo, hi);
          if (blocks == 1) {
            fused_detail::write_leaving<Real>(best, rs, as, desc_s);
          } else {
            part_idx[blk] = best;
            part_val[blk] = rs[best];
          }
        });
    if (blocks > 1) {
      fused_detail::combine_leaving<Real>(device(), part_idx, part_val, rs,
                                          as, desc_s);
    }
  }

  /// Fused Devex weight maintenance: the pivot-row products, the masked
  /// weight update, and the leaving variable's re-entry weight in ONE
  /// launch. The reference weight w_q is read on-device (the reference
  /// path's download_value round trip rides along as a span read); the
  /// candidate test `cand > w_q` is false at j == q, so w_q is never
  /// written while lanes read it.
  void devex_update(const vgpu::DeviceBuffer<Real>& prow,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& devex_w, std::size_t q,
                    std::size_t leaving, Real alpha_p) const {
    const std::size_t m = m_;
    const std::size_t n = n_aug_;
    auto at = at_.device_span();
    auto ps = prow.device_span();
    auto ms = mask.device_span();
    auto wsp = devex_w.device_span();
    device().launch_blocks(
        "devex_update_fused", n, vgpu::Device::kBlockSize,
        {2.0 * double(n) * double(m) + 4.0 * double(n),
         double((n * m + 4 * n + m) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real wq = wsp[q];
          BlockCols cols;
          BlockDots dots;
          std::size_t count = 0;
          for (std::size_t j = lo; j < hi; ++j) {
            if (j == leaving) {
              // The leaving variable re-enters the nonbasic pool with the
              // reference weight of the pivot (its mask is still 0 here).
              wsp[j] = std::max(wq / (alpha_p * alpha_p), Real{1});
            } else if (ms[j] != Real{0}) {
              cols[count++] = static_cast<std::uint32_t>(j);
            }
          }
          column_dots(at, ps, cols, count, dots);
          for (std::size_t k = 0; k < count; ++k) {
            const Real t = dots[k] / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[cols[k]]) wsp[cols[k]] = cand;
          }
        });
  }

 private:
  [[nodiscard]] static vblas::Matrix<Real> host_at(const AugmentedLp& aug) {
    const vblas::Matrix<double> at64 = aug.dense_at();
    vblas::Matrix<Real> out(at64.rows(), at64.cols());
    for (std::size_t i = 0; i < at64.size(); ++i) {
      out.flat()[i] = static_cast<Real>(at64.flat()[i]);
    }
    return out;
  }

  /// Shared sweep: out_j = [c_j -] a_j . y, optionally masked.
  void column_products(std::string_view name,
                       const vgpu::DeviceBuffer<Real>& y,
                       const vgpu::DeviceBuffer<Real>* c,
                       const vgpu::DeviceBuffer<Real>* mask,
                       vgpu::DeviceBuffer<Real>& out) const {
    const std::size_t m = m_;
    auto at = at_.device_span();
    auto ys = y.device_span();
    auto os = out.device_span();
    auto cs = c ? c->device_span() : vgpu::check::CheckedSpan<const Real>{};
    auto ms = mask ? mask->device_span() : vgpu::check::CheckedSpan<const Real>{};
    device().launch_blocks(
        name, n_aug_, vgpu::Device::kBlockSize,
        {2.0 * double(n_aug_) * double(m),
         double((n_aug_ * m + 3 * n_aug_ + m) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          sweep_block(at, ys, cs, ms, os, lo, hi);
        });
  }

  /// One block of the column sweep: out_j = c_j - a_j . y for j in
  /// [lo, hi), 0 where mask_j == 0. An empty `mask` sweeps every column;
  /// an empty `c` writes the plain products a_j . y.
  void sweep_block(const vgpu::check::CheckedSpan<const Real>& at,
                   const vgpu::check::CheckedSpan<const Real>& y,
                   const vgpu::check::CheckedSpan<const Real>& c,
                   const vgpu::check::CheckedSpan<const Real>& mask,
                   const vgpu::check::CheckedSpan<Real>& out, std::size_t lo,
                   std::size_t hi) const {
    BlockCols cols;
    BlockDots dots;
    std::size_t count = 0;
    for (std::size_t j = lo; j < hi; ++j) {
      if (!mask.empty() && mask[j] == Real{0}) {
        out[j] = Real{0};
      } else {
        cols[count++] = static_cast<std::uint32_t>(j);
      }
    }
    column_dots(at, y, cols, count, dots);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t j = cols[t];
      out[j] = c.empty() ? dots[t] : c[j] - dots[t];
    }
  }

  /// One block's worth of swept column indices / dot products.
  using BlockCols = std::array<std::uint32_t, vgpu::Device::kBlockSize>;
  using BlockDots = std::array<Real, vgpu::Device::kBlockSize>;

  /// dots[t] = a_{cols[t]} . y for the block's first `count` listed
  /// columns. Footprint in bulk: each swept column once, and y once — only
  /// when the block sweeps a column, so a fully masked block reads no y.
  void column_dots(const vgpu::check::CheckedSpan<const Real>& at,
                   const vgpu::check::CheckedSpan<const Real>& y,
                   const BlockCols& cols, std::size_t count,
                   BlockDots& dots) const {
    if (count == 0) return;
    const std::size_t m = m_;
    for (std::size_t t = 0; t < count; ++t) {
      at.read_range(cols[t] * m, (cols[t] + std::size_t{1}) * m);
    }
    y.read_range(0, m);
    vblas::dot_rows(at.data(), m,
                    std::span<const std::uint32_t>(cols.data(), count),
                    y.data(), m, dots.data());
  }

  /// dots[i - lo] = row_i(B^-1) . a_q for the block's rows [lo, hi), with
  /// the rows and a_q annotated once each.
  void binv_rows_dot_aq(const vgpu::check::CheckedSpan<const Real>& at,
                        const vgpu::check::CheckedSpan<const Real>& bs,
                        std::size_t q, std::size_t lo, std::size_t hi,
                        BlockDots& dots) const {
    const std::size_t m = m_;
    at.read_range(q * m, q * m + m);
    bs.read_range(lo * m, hi * m);
    vblas::dot_rows(bs.data(), m, lo, hi, at.data() + q * m, m, dots.data());
  }

  std::size_t m_, n_aug_;
  vblas::DeviceMatrix<Real> at_;
};

/// CSR A^T policy: kernel cost scales with nnz instead of n_aug * m.
template <typename Real>
class SparseAt {
 public:
  /// CSR storage opts the product-form basis into the sparse kernel
  /// variants (sparse_ftran / sparse_btran / eta_apply).
  static constexpr bool kSparseKernels = true;

  SparseAt(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m), n_aug_(aug.n_aug), at_(dev, host_csr(aug)) {
    // Widest column, for declaring fused-kernel costs when the entering
    // column index lives on the device (host metadata, like nnz()).
    const std::span<const std::uint32_t> offs = at_.row_offsets().host_view();
    for (std::size_t j = 0; j < n_aug_; ++j) {
      max_col_nnz_ = std::max<std::size_t>(max_col_nnz_, offs[j + 1] - offs[j]);
    }
  }

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }

  void price(const vgpu::DeviceBuffer<Real>& pi,
             const vgpu::DeviceBuffer<Real>& c,
             const vgpu::DeviceBuffer<Real>& mask,
             vgpu::DeviceBuffer<Real>& d) const {
    column_products("price_reduced", pi, &c, &mask, d);
  }

  void pivot_row_product(const vgpu::DeviceBuffer<Real>& y,
                         vgpu::DeviceBuffer<Real>& out) const {
    column_products("pivot_row_product", y, nullptr, nullptr, out);
  }

  /// alpha_i = sum_k a_q[k] * binv(i, col_k): sparse column against the
  /// dense inverse, cost proportional to m * nnz(a_q). The product-form
  /// basis launches this as "sparse_ftran" so the checker/analyzer/
  /// profiler see the scheme's base solve as its own kernel.
  void ftran_alpha(const vblas::DeviceMatrix<Real>& binv, std::size_t q,
                   vgpu::DeviceBuffer<Real>& alpha,
                   std::string_view name = "ftran") const {
    const std::size_t m = m_;
    auto offs = at_.row_offsets().device_span();
    auto cols = at_.col_indices().device_span();
    auto vals = at_.values().device_span();
    auto bs = binv.device_span();
    auto as = alpha.device_span();
    // Column extent read host-side (a scalar lookup, like the pivot index).
    const std::uint32_t k_lo = offs[q];
    const std::uint32_t k_hi = offs[q + 1];
    const std::size_t nnz_q = k_hi - k_lo;
    device().launch_blocks(
        name, m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(nnz_q),
         double(m * nnz_q * sizeof(Real) +
                nnz_q * (sizeof(Real) + sizeof(std::uint32_t)) +
                m * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          // a_q's values/indices are read once and reused across the
          // block (cached on a real GPU); annotate them in bulk.
          vals.read_range(k_lo, k_hi);
          cols.read_range(k_lo, k_hi);
          const Real* vp = vals.data();
          const std::uint32_t* cp = cols.data();
          for (std::size_t i = lo; i < hi; ++i) {
            Real acc{0};
            for (std::uint32_t k = k_lo; k < k_hi; ++k) {
              acc += vp[k] * bs[i * m + cp[k]];
            }
            as[i] = acc;
          }
        });
  }

  // -------------------------------------------------------------------
  // Fused iteration path (SolverOptions::fused_iteration); see DenseAt
  // for the semantics — these are the CSR-cost twins.
  // -------------------------------------------------------------------

  void price_select(const vgpu::DeviceBuffer<Real>& pi,
                    const vgpu::DeviceBuffer<Real>& c,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& d,
                    vgpu::DeviceBuffer<Real>& score,
                    const vgpu::DeviceBuffer<Real>& devex_w,
                    vgpu::DeviceBuffer<Real>& desc, EnteringRule rule,
                    Real tol) const {
    const std::size_t n = n_aug_;
    const std::size_t blocks =
        (n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    std::vector<std::size_t> part_idx(blocks, vgpu::detail::kNoIndex);
    std::vector<Real> part_val(blocks, Real{0});
    auto offs = at_.row_offsets().device_span();
    auto cols = at_.col_indices().device_span();
    auto vals = at_.values().device_span();
    auto ys = pi.device_span();
    auto cs = c.device_span();
    auto ms = mask.device_span();
    auto ds = d.device_span();
    auto ss = score.device_span();
    auto wsp = devex_w.device_span();
    auto desc_s = desc.device_span();
    const double nnz = static_cast<double>(at_.nnz());
    device().launch_blocks(
        "price_select", n, vgpu::Device::kBlockSize,
        {2.0 * nnz + 4.0 * double(n),
         nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)) +
             double(6 * n * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            if (ms[j] == Real{0}) {
              ds[j] = Real{0};
              continue;
            }
            Real acc{0};
            for (std::uint32_t k = offs[j]; k < offs[j + 1]; ++k) {
              acc += vals[k] * ys[cols[k]];
            }
            ds[j] = cs[j] - acc;
          }
          std::size_t best = vgpu::detail::kNoIndex;
          Real val{0};
          if (rule == EnteringRule::kBland) {
            best = vgpu::detail::block_first_below(ds, lo, hi, -tol);
          } else if (rule == EnteringRule::kDevex) {
            for (std::size_t j = lo; j < hi; ++j) {
              ss[j] = ds[j] < -tol ? -(ds[j] * ds[j]) / wsp[j] : Real{0};
            }
            best = vgpu::detail::block_argmin(ss, lo, hi);
            val = ss[best];
          } else {
            best = vgpu::detail::block_argmin(ds, lo, hi);
            val = ds[best];
          }
          if (blocks == 1) {
            fused_detail::write_entering(rule, tol, best, val, ds, desc_s);
          } else {
            part_idx[blk] = best;
            part_val[blk] = val;
          }
        });
    if (blocks > 1) {
      fused_detail::combine_entering(device(), rule, tol, part_idx, part_val,
                                     ds, desc_s);
    }
  }

  /// Declared cost uses the widest column (the entering index is device-
  /// resident, so the exact nnz(a_q) is unknown host-side; over-declaring
  /// is safe, the cost lint only flags observed > declared drift).
  void ftran_ratio_select(const vblas::DeviceMatrix<Real>& binv,
                          const vgpu::DeviceBuffer<Real>& beta,
                          vgpu::DeviceBuffer<Real>& alpha,
                          vgpu::DeviceBuffer<Real>& ratio,
                          vgpu::DeviceBuffer<Real>& desc,
                          Real pivot_tol) const {
    const std::size_t m = m_;
    const std::size_t blocks =
        (m + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    std::vector<std::size_t> part_idx(blocks, vgpu::detail::kNoIndex);
    std::vector<Real> part_val(blocks, Real{0});
    auto offs = at_.row_offsets().device_span();
    auto cols = at_.col_indices().device_span();
    auto vals = at_.values().device_span();
    auto bs = binv.device_span();
    auto be = beta.device_span();
    auto as = alpha.device_span();
    auto rs = ratio.device_span();
    auto desc_s = desc.device_span();
    const std::size_t nnz_max = max_col_nnz_;
    constexpr Real kRInf = std::numeric_limits<Real>::infinity();
    device().launch_blocks(
        "ftran_ratio", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(nnz_max) + 3.0 * double(m),
         double(m * nnz_max * sizeof(Real) +
                nnz_max * (sizeof(Real) + sizeof(std::uint32_t)) +
                (7 * m + 2) * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          if (desc_s[kDescQ] < Real{0}) return;  // optimal: nothing entered
          const std::size_t q = static_cast<std::size_t>(desc_s[kDescQ]);
          const std::uint32_t k_lo = offs[q];
          const std::uint32_t k_hi = offs[q + 1];
          vals.read_range(k_lo, k_hi);
          cols.read_range(k_lo, k_hi);
          const Real* vp = vals.data();
          const std::uint32_t* cp = cols.data();
          for (std::size_t i = lo; i < hi; ++i) {
            Real acc{0};
            for (std::uint32_t k = k_lo; k < k_hi; ++k) {
              acc += vp[k] * bs[i * m + cp[k]];
            }
            as[i] = acc;
            rs[i] = acc > pivot_tol ? be[i] / acc : kRInf;
          }
          const std::size_t best = vgpu::detail::block_argmin(rs, lo, hi);
          if (blocks == 1) {
            fused_detail::write_leaving<Real>(best, rs, as, desc_s);
          } else {
            part_idx[blk] = best;
            part_val[blk] = rs[best];
          }
        });
    if (blocks > 1) {
      fused_detail::combine_leaving<Real>(device(), part_idx, part_val, rs,
                                          as, desc_s);
    }
  }

  void devex_update(const vgpu::DeviceBuffer<Real>& prow,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& devex_w, std::size_t q,
                    std::size_t leaving, Real alpha_p) const {
    const std::size_t n = n_aug_;
    auto offs = at_.row_offsets().device_span();
    auto cols = at_.col_indices().device_span();
    auto vals = at_.values().device_span();
    auto ps = prow.device_span();
    auto ms = mask.device_span();
    auto wsp = devex_w.device_span();
    const double nnz = static_cast<double>(at_.nnz());
    device().launch_blocks(
        "devex_update_fused", n, vgpu::Device::kBlockSize,
        {2.0 * nnz + 4.0 * double(n),
         nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)) +
             double(4 * n * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real wq = wsp[q];
          for (std::size_t j = lo; j < hi; ++j) {
            if (j == leaving) {
              wsp[j] = std::max(wq / (alpha_p * alpha_p), Real{1});
              continue;
            }
            if (ms[j] == Real{0}) continue;
            Real acc{0};
            for (std::uint32_t k = offs[j]; k < offs[j + 1]; ++k) {
              acc += vals[k] * ps[cols[k]];
            }
            const Real t = acc / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[j]) wsp[j] = cand;
          }
        });
  }

 private:
  [[nodiscard]] static sparse::CsrMatrix<Real> host_csr(
      const AugmentedLp& aug) {
    const sparse::CsrMatrix<double> at64 = aug.csr_at();
    std::vector<Real> vals(at64.values().size());
    for (std::size_t k = 0; k < vals.size(); ++k) {
      vals[k] = static_cast<Real>(at64.values()[k]);
    }
    return sparse::CsrMatrix<Real>(at64.rows(), at64.cols(),
                                   at64.row_offsets(), at64.col_indices(),
                                   std::move(vals));
  }

  void column_products(std::string_view name,
                       const vgpu::DeviceBuffer<Real>& y,
                       const vgpu::DeviceBuffer<Real>* c,
                       const vgpu::DeviceBuffer<Real>* mask,
                       vgpu::DeviceBuffer<Real>& out) const {
    auto offs = at_.row_offsets().device_span();
    auto cols = at_.col_indices().device_span();
    auto vals = at_.values().device_span();
    auto ys = y.device_span();
    auto os = out.device_span();
    auto cs = c ? c->device_span() : vgpu::check::CheckedSpan<const Real>{};
    auto ms = mask ? mask->device_span() : vgpu::check::CheckedSpan<const Real>{};
    const double nnz = static_cast<double>(at_.nnz());
    device().launch_blocks(
        name, n_aug_, vgpu::Device::kBlockSize,
        {2.0 * nnz,
         nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)) +
             double(3 * n_aug_ * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            if (mask && ms[j] == Real{0}) {
              os[j] = Real{0};
              continue;
            }
            Real acc{0};
            for (std::uint32_t k = offs[j]; k < offs[j + 1]; ++k) {
              acc += vals[k] * ys[cols[k]];
            }
            os[j] = c ? cs[j] - acc : acc;
          }
        });
  }

  std::size_t m_, n_aug_;
  sparse::DeviceCsr<Real> at_;
  std::size_t max_col_nnz_ = 0;
};

}  // namespace gs::simplex
