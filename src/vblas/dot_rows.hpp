// Blocked dot products and axpy for the simulator's dense hot loops.
//
// Every dense sweep of a revised-simplex iteration is a batch of
// independent dot products against one shared vector: pricing takes
// a_j . pi over the columns of A^T, FTRAN takes row_i(B^-1) . a_q over
// the rows of the inverse, and the beta refresh takes row_i(B^-1) . b.
// Written with one accumulator per output, each product is a single chain
// of dependent adds, so it runs at floating-point add latency, not at
// memory speed. dot_rows computes four outputs per pass instead. The four
// chains are independent and share each load of y[k], so their adds
// overlap in the pipeline.
//
// Bit-identity contract: every output is exactly the scalar loop
//
//   T acc{0};
//   for (std::size_t k = 0; k < m; ++k) acc += row[k] * y[k];
//
// with the same start value, the same terms in the same order, and one
// rounding per multiply and per add. Interleaving *independent* outputs
// reorders no operation inside any one of them, so the results equal the
// scalar loop's bit for bit, remainders included. That holds only with
// multiply-add contraction off: a fused a*b+c rounds once, not twice. The
// root CMakeLists.txt pins -ffp-contract=off for that reason.
#pragma once

#include <cstddef>
#include <span>

namespace gs::vblas {

/// The scalar reference: one accumulator, k = 0..m-1 in order.
template <typename T>
[[nodiscard]] inline T dot(const T* row, const T* y, std::size_t m) noexcept {
  T acc{0};
  for (std::size_t k = 0; k < m; ++k) acc += row[k] * y[k];
  return acc;
}

namespace detail {

/// out[t] = row_of(t) . y for t < count: four rows per pass, then the
/// 1-3 row remainder through the scalar reference.
template <typename T, typename RowOf>
void dot_rows_by(std::size_t count, RowOf row_of, const T* y, std::size_t m,
                 T* out) noexcept {
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const T* r0 = row_of(t);
    const T* r1 = row_of(t + 1);
    const T* r2 = row_of(t + 2);
    const T* r3 = row_of(t + 3);
    T a0{0}, a1{0}, a2{0}, a3{0};
    for (std::size_t k = 0; k < m; ++k) {
      const T yk = y[k];
      a0 += r0[k] * yk;
      a1 += r1[k] * yk;
      a2 += r2[k] * yk;
      a3 += r3[k] * yk;
    }
    out[t] = a0;
    out[t + 1] = a1;
    out[t + 2] = a2;
    out[t + 3] = a3;
  }
  for (; t < count; ++t) out[t] = dot(row_of(t), y, m);
}

}  // namespace detail

/// out[t] = row(idx[t]) . y[0, m) for every listed row of the row-major
/// matrix `a` with leading dimension `ld` (rows may be any subset, in any
/// order; the masked-column sweeps pass the unmasked ones).
template <typename T, typename Index>
void dot_rows(const T* a, std::size_t ld, std::span<const Index> idx,
              const T* y, std::size_t m, T* out) noexcept {
  detail::dot_rows_by(
      idx.size(),
      [&](std::size_t t) { return a + static_cast<std::size_t>(idx[t]) * ld; },
      y, m, out);
}

/// out[i - lo] = row(i) . y[0, m) for the contiguous rows i in [lo, hi).
template <typename T>
void dot_rows(const T* a, std::size_t ld, std::size_t lo, std::size_t hi,
              const T* y, std::size_t m, T* out) noexcept {
  detail::dot_rows_by(
      hi - lo, [&](std::size_t t) { return a + (lo + t) * ld; }, y, m, out);
}

/// y[j] = y[j] + alpha * x[j] for j < n, over raw pointers so the loop
/// vectorizes. The elimination form y[j] - f * x[j] is axpy(-f, x, y, n)
/// bit for bit: IEEE 754 defines a - b as a + (-b), and (-f) * x[j] is
/// exactly -(f * x[j]) because rounding to nearest is sign-symmetric.
template <typename T>
inline void axpy(T alpha, const T* x, T* y, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) y[j] += alpha * x[j];
}

}  // namespace gs::vblas
