// Constraint-matrix access policies for the device revised simplex engine.
//
// The engine is generic over how the (augmented, transposed) constraint
// matrix A^T is stored on the device:
//   * DenseAt  — dense n_aug x m row-major (the paper's layout), and
//   * SparseAt — CSR (the follow-on sparse variant, Ext. C).
// Both are FusedAt over a storage class. FusedAt holds the kernels whose
// cost depends on the storage, each written once: FTRAN's B^-1 a_q
// product, the pivot-row product used by artificial drive-out, and the
// fused iteration kernels — the pricing+selection launch, the
// FTRAN+ratio+selection launch and the Devex weight update — that write
// the on-device pivot descriptor instead of round-tripping scalars over
// PCIe. The storage supplies only a per-launch view (the column dot
// products and the B^-1 row products with a_q, each with its own
// summation order and checker footprint) and the declared work of an
// A^T sweep and of B^-1 a_q.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
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
// Fused-iteration pivot descriptor.
//
// All per-iteration decisions accumulate in a 5-slot device buffer and
// cross PCIe as one packed d2h. Indices are encoded as Real (exact up to
// 2^24 even in float); kDescNone (-1) marks "no candidate".
// ---------------------------------------------------------------------
inline constexpr std::size_t kDescQ = 0;       ///< entering column, or -1
inline constexpr std::size_t kDescDq = 1;      ///< reduced cost d_q
inline constexpr std::size_t kDescP = 2;       ///< leaving row, or -1
inline constexpr std::size_t kDescTheta = 3;   ///< ratio-test step length
inline constexpr std::size_t kDescAlphaP = 4;  ///< pivot element alpha_p
inline constexpr std::size_t kDescSlots = 5;
// (Ratio ties are observational — the recorder counts them through
// host_view() outside the machine model, so they never ride in the
// descriptor or cost a device-side rescan.)

/// Entering-variable rule for one fused pricing launch (the hybrid rule
/// resolves to Dantzig or Bland per iteration on the host).
enum class EnteringRule { kDantzig, kBland, kDevex };

namespace fused_detail {

/// Per-block winners of one fused selection launch. Like the primitives'
/// reductions they live host-side, invisible to the machine model; a
/// sweep wider than one block combines them in a second, small launch.
template <typename Real>
struct BlockWinners {
  explicit BlockWinners(std::size_t n)
      : blocks((n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize),
        idx(blocks, vgpu::detail::kNoIndex),
        val(blocks, Real{0}) {}
  std::size_t blocks;
  std::vector<std::size_t> idx;
  std::vector<Real> val;
};

/// Apply the selection rule's acceptance test (the host-side tests of the
/// primitives' argmin / find_first_below callers) to the winning column
/// and write the entering decision into the descriptor. d_q is reported
/// from the reduced-cost span.
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

/// One block of the fused entering scan over the reduced costs d[lo, hi)
/// (Devex scores land in `score`), with the primitives' block-scan
/// semantics. A one-block sweep writes the descriptor directly.
template <typename Real, typename DSpan, typename SSpan, typename WSpan,
          typename DescSpan>
void entering_block(EnteringRule rule, Real tol, const DSpan& d,
                    const SSpan& score, const WSpan& devex_w, DescSpan& desc,
                    BlockWinners<Real>& win, std::size_t blk, std::size_t lo,
                    std::size_t hi) {
  std::size_t best = vgpu::detail::kNoIndex;
  Real val{0};
  if (rule == EnteringRule::kBland) {
    best = vgpu::detail::block_first_below(d, lo, hi, -tol);
  } else if (rule == EnteringRule::kDevex) {
    for (std::size_t j = lo; j < hi; ++j) {
      score[j] = d[j] < -tol ? -(d[j] * d[j]) / devex_w[j] : Real{0};
    }
    best = vgpu::detail::block_argmin(score, lo, hi);
    val = score[best];
  } else {
    best = vgpu::detail::block_argmin(d, lo, hi);
    val = d[best];
  }
  if (win.blocks == 1) {
    write_entering(rule, tol, best, val, d, desc);
  } else {
    win.idx[blk] = best;
    win.val[blk] = val;
  }
}

/// Cross-block combine for the fused pricing selection, launched only
/// when the column sweep spans more than one block. Reduces the per-block
/// winners with the primitives' combine semantics (block order, strict
/// <; first hit for Bland), so the winner is the one vgpu::argmin /
/// find_first_below would pick over the full buffer.
template <typename Real, typename DSpan, typename DescSpan>
void combine_entering(vgpu::Device& dev, EnteringRule rule, Real tol,
                      const BlockWinners<Real>& win, DSpan d, DescSpan desc) {
  const std::size_t blocks = win.blocks;
  if (blocks <= 1) return;
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
            if (win.idx[b] != vgpu::detail::kNoIndex) {
              best = win.idx[b];
              break;
            }
          }
        } else {
          best = win.idx[0];
          val = win.val[0];
          for (std::size_t b = 1; b < blocks; ++b) {
            if (win.val[b] < val) {
              best = win.idx[b];
              val = win.val[b];
            }
          }
        }
        write_entering(rule, tol, best, val, d, desc);
      });
}

/// The ratio test's value for row i: beta_i / alpha_i where alpha_i >
/// pivot_tol, else +inf (beta_i is read only when it is used).
template <typename Real, typename BSpan>
[[nodiscard]] Real ratio_at(Real alpha, const BSpan& beta, std::size_t i,
                            Real pivot_tol) {
  return alpha > pivot_tol ? beta[i] / alpha
                           : std::numeric_limits<Real>::infinity();
}

/// Write the leaving decision (row, step length, pivot element).
template <typename Real, typename RSpan, typename ASpan, typename DescSpan>
void write_leaving(std::size_t best, const RSpan& ratio, const ASpan& alpha,
                   DescSpan& desc) {
  desc[kDescP] = static_cast<Real>(best);
  desc[kDescTheta] = ratio[best];
  desc[kDescAlphaP] = alpha[best];
}

/// One block of the fused leaving scan over ratio[lo, hi) (argmin
/// semantics). A one-block sweep writes the descriptor directly.
template <typename Real, typename RSpan, typename ASpan, typename DescSpan>
void leaving_block(const RSpan& ratio, const ASpan& alpha, DescSpan& desc,
                   BlockWinners<Real>& win, std::size_t blk, std::size_t lo,
                   std::size_t hi) {
  const std::size_t best = vgpu::detail::block_argmin(ratio, lo, hi);
  if (win.blocks == 1) {
    write_leaving<Real>(best, ratio, alpha, desc);
  } else {
    win.idx[blk] = best;
    win.val[blk] = ratio[best];
  }
}

/// Cross-block combine for the leaving scan, launched only when the rows
/// span more than one block.
template <typename Real, typename RSpan, typename ASpan, typename DescSpan>
void combine_leaving(vgpu::Device& dev, const BlockWinners<Real>& win,
                     RSpan ratio, ASpan alpha, DescSpan desc) {
  const std::size_t blocks = win.blocks;
  if (blocks <= 1) return;
  dev.launch_blocks(
      "ftran_ratio_final", 1, 1,
      {static_cast<double>(blocks),
       static_cast<double>(blocks * (sizeof(Real) + sizeof(std::size_t)) +
                           5 * sizeof(Real)),
       sizeof(Real)},
      [&](std::size_t, std::size_t, std::size_t) {
        if (desc[kDescQ] < Real{0}) return;  // speculative: nothing entered
        std::size_t best = win.idx[0];
        Real val = win.val[0];
        for (std::size_t b = 1; b < blocks; ++b) {
          if (win.val[b] < val) {
            best = win.idx[b];
            val = win.val[b];
          }
        }
        write_leaving<Real>(best, ratio, alpha, desc);
      });
}

/// One block's worth of swept column indices / dot products.
using BlockCols = std::array<std::uint32_t, vgpu::Device::kBlockSize>;
template <typename Real>
using BlockDots = std::array<Real, vgpu::Device::kBlockSize>;

}  // namespace fused_detail

/// Dense row-major A^T storage (n_aug x m): contiguous column reads,
/// BLAS-2-shaped sweeps.
template <typename Real>
class DenseAtStorage {
 public:
  using value_type = Real;
  /// Dense storage keeps the paper's m-proportional kernel names; the
  /// sparse basis-kernel variants (sparse_ftran / sparse_btran /
  /// eta_apply) only make sense when column extents are known.
  static constexpr bool kSparseKernels = false;

  DenseAtStorage(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m), n_aug_(aug.n_aug), at_(dev, host_at(aug)) {}

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }

  /// One launch's device view of A^T.
  struct View {
    vgpu::check::CheckedSpan<const Real> at;
    std::size_t m;

    /// dots[t] = a_{cols[t]} . y for the block's first `count` listed
    /// columns. Footprint in bulk: each swept column once, and y once —
    /// only when the block sweeps a column, so a fully masked block reads
    /// no y.
    void column_dots(const vgpu::check::CheckedSpan<const Real>& y,
                     const fused_detail::BlockCols& cols, std::size_t count,
                     fused_detail::BlockDots<Real>& dots) const {
      if (count == 0) return;
      for (std::size_t t = 0; t < count; ++t) {
        at.read_range(cols[t] * m, (cols[t] + std::size_t{1}) * m);
      }
      y.read_range(0, m);
      vblas::dot_rows(at.data(), m,
                      std::span<const std::uint32_t>(cols.data(), count),
                      y.data(), m, dots.data());
    }

    /// dots[i - lo] = row_i(B^-1) . a_q for the block's rows [lo, hi),
    /// with the rows and a_q annotated once each.
    void binv_rows_dot_aq(const vgpu::check::CheckedSpan<const Real>& bs,
                          std::size_t q, std::size_t lo, std::size_t hi,
                          fused_detail::BlockDots<Real>& dots) const {
      at.read_range(q * m, q * m + m);
      bs.read_range(lo * m, hi * m);
      vblas::dot_rows(bs.data(), m, lo, hi, at.data() + q * m, m,
                      dots.data());
    }
  };
  [[nodiscard]] View view() const { return {at_.device_span(), m_}; }

  /// Declared work of one sweep of A^T against a length-m vector: every
  /// entry of A^T and the vector once.
  [[nodiscard]] vgpu::KernelCost sweep_cost() const {
    return {2.0 * double(n_aug_) * double(m_),
            double((n_aug_ * m_ + m_) * sizeof(Real)), sizeof(Real)};
  }

  /// Declared work of B^-1 a_q (dense gemv against the contiguous column
  /// a_q): the same whether q is known host-side or device-resident.
  [[nodiscard]] vgpu::KernelCost aq_cost(std::optional<std::size_t>) const {
    return {2.0 * double(m_) * double(m_),
            double((m_ * m_ + m_) * sizeof(Real)), sizeof(Real)};
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

  std::size_t m_, n_aug_;
  vblas::DeviceMatrix<Real> at_;
};

/// CSR A^T storage: sweep cost scales with nnz instead of n_aug * m.
template <typename Real>
class CsrAtStorage {
 public:
  using value_type = Real;
  /// CSR storage opts the product-form basis into the sparse kernel
  /// variants (sparse_ftran / sparse_btran / eta_apply).
  static constexpr bool kSparseKernels = true;

  CsrAtStorage(vgpu::Device& dev, const AugmentedLp& aug)
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

  /// Device views of the CSR arrays of A^T (row j of A^T is column j of
  /// A), taken once per launch.
  struct View {
    vgpu::check::CheckedSpan<const std::uint32_t> offs, cols;
    vgpu::check::CheckedSpan<const Real> vals;
    std::size_t m;

    /// dots[t] = a_{cols[t]} . y, each summed in CSR order.
    void column_dots(const vgpu::check::CheckedSpan<const Real>& y,
                     const fused_detail::BlockCols& list, std::size_t count,
                     fused_detail::BlockDots<Real>& dots) const {
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t j = list[t];
        Real acc{0};
        for (std::uint32_t k = offs[j]; k < offs[j + 1]; ++k) {
          acc += vals[k] * y[cols[k]];
        }
        dots[t] = acc;
      }
    }

    /// dots[i - lo] = row_i(B^-1) . a_q for rows [lo, hi). a_q's values
    /// and indices are read once and reused across the block (cached on
    /// a real GPU); they are annotated in bulk.
    void binv_rows_dot_aq(const vgpu::check::CheckedSpan<const Real>& bs,
                          std::size_t q, std::size_t lo, std::size_t hi,
                          fused_detail::BlockDots<Real>& dots) const {
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
        dots[i - lo] = acc;
      }
    }
  };
  [[nodiscard]] View view() const {
    return {at_.row_offsets().device_span(), at_.col_indices().device_span(),
            at_.values().device_span(), m_};
  }

  /// Declared work of one sweep of A^T against a length-m vector: each
  /// nonzero's value, row index and vector entry once.
  [[nodiscard]] vgpu::KernelCost sweep_cost() const {
    const double nnz = static_cast<double>(at_.nnz());
    return {2.0 * nnz, nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)),
            sizeof(Real)};
  }

  /// Declared work of B^-1 a_q, the sparse column against the dense
  /// inverse: m * nnz(a_q) entries of B^-1 and a_q once. For a
  /// device-resident q (nullopt) the exact nnz(a_q) is unknown host-side,
  /// so the widest column is declared, plus one more length-m vector
  /// (over-declaring is safe: the cost lint flags only observed >
  /// declared drift).
  [[nodiscard]] vgpu::KernelCost aq_cost(std::optional<std::size_t> q) const {
    // Column extent read host-side (a scalar lookup, like the pivot index).
    const View a = view();
    const std::size_t nnz_q =
        q.has_value() ? std::size_t{a.offs[*q + 1] - a.offs[*q]} : max_col_nnz_;
    const std::size_t vec = q.has_value() ? 0 : m_;
    return {2.0 * double(m_) * double(nnz_q),
            double(m_ * nnz_q * sizeof(Real) +
                   nnz_q * (sizeof(Real) + sizeof(std::uint32_t)) +
                   vec * sizeof(Real)),
            sizeof(Real)};
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

  std::size_t m_, n_aug_;
  sparse::DeviceCsr<Real> at_;
  std::size_t max_col_nnz_ = 0;
};

/// The device engine's A^T kernels, written once over a Storage that
/// supplies a per-launch view (`column_dots`, `binv_rows_dot_aq`) and the
/// declared work of an A^T sweep and of B^-1 a_q. Each launch's declared
/// cost is that work plus the kernel's own vector traffic.
template <class Storage>
class FusedAt : public Storage {
 public:
  using Real = typename Storage::value_type;
  using Storage::Storage;

  /// out_j = a_j . y for every column j (the drive-out row of B^-1 A).
  void pivot_row_product(const vgpu::DeviceBuffer<Real>& y,
                         vgpu::DeviceBuffer<Real>& out) const {
    const std::size_t n = this->n_aug();
    const auto a = this->view();
    auto ys = y.device_span();
    auto os = out.device_span();
    const vgpu::check::CheckedSpan<const Real> none{};
    this->device().launch_blocks(
        "pivot_row_product", n, vgpu::Device::kBlockSize,
        plus(this->sweep_cost(), 0.0, 3 * n),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          sweep_block(a, ys, none, none, os, lo, hi);
        });
  }

  /// alpha = B^-1 a_q. `name` lets basis schemes label their FTRAN variant
  /// in the stream (the product form's CSR base solve is "sparse_ftran").
  void ftran_alpha(const vblas::DeviceMatrix<Real>& binv, std::size_t q,
                   vgpu::DeviceBuffer<Real>& alpha,
                   std::string_view name = "ftran") const {
    const std::size_t m = this->m();
    const auto a = this->view();
    auto bs = binv.device_span();
    auto as = alpha.device_span();
    this->device().launch_blocks(
        name, m, vgpu::Device::kBlockSize, plus(this->aq_cost(q), 0.0, m),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          fused_detail::BlockDots<Real> dots;
          a.binv_rows_dot_aq(bs, q, lo, hi, dots);
          for (std::size_t i = lo; i < hi; ++i) as[i] = dots[i - lo];
        });
  }

  /// Fused pricing: reduced costs d_j = mask_j ? c_j - a_j . pi : 0, the
  /// rule-specific selection scan and the entering decision in one launch.
  /// Writes desc[kDescQ] and desc[kDescDq]; the block-scan semantics match
  /// the primitives', so the chosen column is the one vgpu::argmin /
  /// find_first_below would pick over d (or the Devex scores).
  void price_select(const vgpu::DeviceBuffer<Real>& pi,
                    const vgpu::DeviceBuffer<Real>& c,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& d,
                    vgpu::DeviceBuffer<Real>& score,
                    const vgpu::DeviceBuffer<Real>& devex_w,
                    vgpu::DeviceBuffer<Real>& desc, EnteringRule rule,
                    Real tol) const {
    const std::size_t n = this->n_aug();
    fused_detail::BlockWinners<Real> win(n);
    const auto a = this->view();
    auto ys = pi.device_span();
    auto cs = c.device_span();
    auto ms = mask.device_span();
    auto ds = d.device_span();
    auto ss = score.device_span();
    auto wsp = devex_w.device_span();
    auto desc_s = desc.device_span();
    this->device().launch_blocks(
        "price_select", n, vgpu::Device::kBlockSize,
        plus(this->sweep_cost(), 4.0 * double(n), 6 * n),
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          sweep_block(a, ys, cs, ms, ds, lo, hi);
          fused_detail::entering_block(rule, tol, ds, ss, wsp, desc_s, win,
                                       blk, lo, hi);
        });
    fused_detail::combine_entering(this->device(), rule, tol, win, ds,
                                   desc_s);
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
    const std::size_t m = this->m();
    fused_detail::BlockWinners<Real> win(m);
    const auto a = this->view();
    auto bs = binv.device_span();
    auto be = beta.device_span();
    auto as = alpha.device_span();
    auto rs = ratio.device_span();
    auto desc_s = desc.device_span();
    this->device().launch_blocks(
        "ftran_ratio", m, vgpu::Device::kBlockSize,
        plus(this->aq_cost(std::nullopt), 3.0 * double(m), 6 * m + 2),
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          if (desc_s[kDescQ] < Real{0}) return;  // optimal: nothing entered
          const std::size_t q = static_cast<std::size_t>(desc_s[kDescQ]);
          fused_detail::BlockDots<Real> dots;
          a.binv_rows_dot_aq(bs, q, lo, hi, dots);
          for (std::size_t i = lo; i < hi; ++i) {
            const Real acc = dots[i - lo];
            as[i] = acc;
            rs[i] = fused_detail::ratio_at(acc, be, i, pivot_tol);
          }
          fused_detail::leaving_block(rs, as, desc_s, win, blk, lo, hi);
        });
    fused_detail::combine_leaving(this->device(), win, rs, as, desc_s);
  }

  /// Fused Devex weight maintenance: the pivot-row products, the masked
  /// weight update, and the leaving variable's re-entry weight in ONE
  /// launch. The reference weight w_q is read on-device; the candidate
  /// test `cand > w_q` is false at j == q, so w_q is never written while
  /// lanes read it. `prow` is row p of the pre-update B^-1.
  void devex_update(const vgpu::DeviceBuffer<Real>& prow,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& devex_w, std::size_t q,
                    std::size_t leaving, Real alpha_p) const {
    const std::size_t n = this->n_aug();
    const auto a = this->view();
    auto ps = prow.device_span();
    auto ms = mask.device_span();
    auto wsp = devex_w.device_span();
    this->device().launch_blocks(
        "devex_update_fused", n, vgpu::Device::kBlockSize,
        plus(this->sweep_cost(), 4.0 * double(n), 4 * n),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real wq = wsp[q];
          fused_detail::BlockCols cols;
          fused_detail::BlockDots<Real> dots;
          std::size_t count = 0;
          for (std::size_t j = lo; j < hi; ++j) {
            if (j == leaving) {
              // The leaving variable re-enters the nonbasic pool with the
              // reference weight of the pivot, whatever its mask reads
              // (the explicit inverse unmasks it after this launch, the
              // product form before).
              wsp[j] = std::max(wq / (alpha_p * alpha_p), Real{1});
            } else if (ms[j] != Real{0}) {
              cols[count++] = static_cast<std::uint32_t>(j);
            }
          }
          a.column_dots(ps, cols, count, dots);
          for (std::size_t k = 0; k < count; ++k) {
            const Real t = dots[k] / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[cols[k]]) wsp[cols[k]] = cand;
          }
        });
  }

 private:
  using View = typename Storage::View;

  /// `work` plus `flops` more operations and `words` more Real words.
  [[nodiscard]] static vgpu::KernelCost plus(vgpu::KernelCost work,
                                             double flops, std::size_t words) {
    work.flops += flops;
    work.bytes += double(words * sizeof(Real));
    return work;
  }

  /// One block of the column sweep: out_j = c_j - a_j . y for j in
  /// [lo, hi), 0 where mask_j == 0. An empty `mask` sweeps every column;
  /// an empty `c` writes the plain products a_j . y.
  static void sweep_block(const View& a,
                          const vgpu::check::CheckedSpan<const Real>& y,
                          const vgpu::check::CheckedSpan<const Real>& c,
                          const vgpu::check::CheckedSpan<const Real>& mask,
                          const vgpu::check::CheckedSpan<Real>& out,
                          std::size_t lo, std::size_t hi) {
    fused_detail::BlockCols cols;
    fused_detail::BlockDots<Real> dots;
    std::size_t count = 0;
    for (std::size_t j = lo; j < hi; ++j) {
      if (!mask.empty() && mask[j] == Real{0}) {
        out[j] = Real{0};
      } else {
        cols[count++] = static_cast<std::uint32_t>(j);
      }
    }
    a.column_dots(y, cols, count, dots);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t j = cols[t];
      out[j] = c.empty() ? dots[t] : c[j] - dots[t];
    }
  }
};

/// Dense A^T kernels (the paper's layout).
template <typename Real>
using DenseAt = FusedAt<DenseAtStorage<Real>>;

/// CSR A^T kernels (the follow-on sparse variant, Ext. C).
template <typename Real>
using SparseAt = FusedAt<CsrAtStorage<Real>>;

}  // namespace gs::simplex
