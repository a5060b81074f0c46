// Unit tests for the dense BLAS module, validated against independent
// serial reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "support/rng.hpp"
#include "vblas/blas1.hpp"
#include "vblas/blas2.hpp"
#include "vblas/blas3.hpp"
#include "vblas/containers.hpp"
#include "vblas/dot_rows.hpp"
#include "vblas/host_ref.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::vblas {
namespace {

using vgpu::Device;
using vgpu::DeviceBuffer;

[[nodiscard]] std::vector<double> random_vector(std::size_t n,
                                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

[[nodiscard]] Matrix<double> random_matrix(std::size_t rows, std::size_t cols,
                                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Matrix<double> m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

// -------------------------------------------------------------- containers

TEST(Matrix, IdentityAndTranspose) {
  const auto eye = Matrix<double>::identity(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
  const auto m = random_matrix(3, 5, 1);
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(m(i, j), t(j, i));
  }
}

TEST(Matrix, RowViewIsMutable) {
  Matrix<double> m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(DeviceMatrix, RoundTrip) {
  Device dev(vgpu::gtx280_model());
  const auto host = random_matrix(6, 7, 2);
  DeviceMatrix<double> d(dev, host);
  const auto back = d.to_host();
  for (std::size_t i = 0; i < host.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.flat()[i], host.flat()[i]);
  }
  EXPECT_EQ(d.rows(), 6u);
  EXPECT_EQ(d.cols(), 7u);
}

TEST(DeviceMatrix, UploadShapeMismatchThrows) {
  Device dev(vgpu::gtx280_model());
  DeviceMatrix<double> d(dev, 2, 2);
  EXPECT_THROW(d.upload(Matrix<double>(3, 2)), Error);
}

// ------------------------------------------------------------------ BLAS-1

class Blas1Sizes : public ::testing::TestWithParam<std::size_t> {
 protected:
  Device dev_{vgpu::gtx280_model()};
};

TEST_P(Blas1Sizes, AxpyMatchesReference) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, 10), y = random_vector(n, 11);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  DeviceBuffer<double> dy(dev_, std::span<const double>(y));
  axpy(0.5, dx, dy);
  ref::axpy(0.5, std::span<const double>(x), std::span<double>(y));
  const auto got = dy.to_host();
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(got[i], y[i]);
}

TEST_P(Blas1Sizes, DotMatchesReference) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, 12), y = random_vector(n, 13);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  DeviceBuffer<double> dy(dev_, std::span<const double>(y));
  const double expect =
      ref::dot(std::span<const double>(x), std::span<const double>(y));
  EXPECT_NEAR(dot(dx, dy), expect, 1e-10 * (1.0 + n));
}

TEST_P(Blas1Sizes, ScalNrm2Asum) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, 14);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  scal(-2.0, dx);
  const auto got = dx.to_host();
  double sumsq = 0.0, sumabs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(got[i], -2.0 * x[i]);
    sumsq += got[i] * got[i];
    sumabs += std::abs(got[i]);
  }
  EXPECT_NEAR(nrm2(dx), std::sqrt(sumsq), 1e-9 * (1.0 + n));
  EXPECT_NEAR(asum(dx), sumabs, 1e-9 * (1.0 + n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Blas1Sizes,
                         ::testing::Values(1, 5, 256, 300, 2048));

TEST(Blas1, CopyKernel) {
  Device dev(vgpu::gtx280_model());
  auto x = random_vector(100, 15);
  DeviceBuffer<double> dx(dev, std::span<const double>(x));
  DeviceBuffer<double> dy(dev, 100);
  copy(dx, dy);
  EXPECT_EQ(dy.to_host(), x);
}

TEST(Blas1, SizeMismatchThrows) {
  Device dev(vgpu::gtx280_model());
  DeviceBuffer<double> a(dev, 3), b(dev, 4);
  EXPECT_THROW(axpy(1.0, a, b), Error);
  EXPECT_THROW((void)dot(a, b), Error);
}

// ------------------------------------------------------------------ BLAS-2

struct GemvShape {
  std::size_t m, n;
};

class Blas2Shapes : public ::testing::TestWithParam<GemvShape> {
 protected:
  Device dev_{vgpu::gtx280_model()};
};

TEST_P(Blas2Shapes, GemvMatchesReference) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(m, n, 20);
  const auto x = random_vector(n, 21);
  DeviceMatrix<double> da(dev_, a);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  DeviceBuffer<double> dy(dev_, m);
  gemv(1.0, da, dx, 0.0, dy);
  const auto expect = ref::gemv(a, std::span<const double>(x));
  const auto got = dy.to_host();
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(got[i], expect[i], 1e-10 * n);
}

TEST_P(Blas2Shapes, GemvTransposedMatchesReference) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(m, n, 22);
  const auto x = random_vector(m, 23);
  DeviceMatrix<double> da(dev_, a);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  DeviceBuffer<double> dy(dev_, n);
  gemv_t(1.0, da, dx, 0.0, dy);
  const auto expect = ref::gemv_t(a, std::span<const double>(x));
  const auto got = dy.to_host();
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(got[j], expect[j], 1e-10 * m);
}

TEST_P(Blas2Shapes, GerMatchesReference) {
  const auto [m, n] = GetParam();
  auto a = random_matrix(m, n, 24);
  const auto x = random_vector(m, 25);
  const auto y = random_vector(n, 26);
  DeviceMatrix<double> da(dev_, a);
  DeviceBuffer<double> dx(dev_, std::span<const double>(x));
  DeviceBuffer<double> dy(dev_, std::span<const double>(y));
  ger(1.5, dx, dy, da);
  const auto got = da.to_host();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(got(i, j), a(i, j) + 1.5 * x[i] * y[j], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Blas2Shapes,
                         ::testing::Values(GemvShape{1, 1}, GemvShape{3, 7},
                                           GemvShape{64, 64},
                                           GemvShape{300, 100},
                                           GemvShape{100, 300}));

TEST(Blas2, GemvAlphaBetaComposition) {
  Device dev(vgpu::gtx280_model());
  const auto a = random_matrix(8, 8, 27);
  const auto x = random_vector(8, 28);
  auto y = random_vector(8, 29);
  DeviceMatrix<double> da(dev, a);
  DeviceBuffer<double> dx(dev, std::span<const double>(x));
  DeviceBuffer<double> dy(dev, std::span<const double>(y));
  gemv(2.0, da, dx, -1.0, dy);
  const auto ax = ref::gemv(a, std::span<const double>(x));
  const auto got = dy.to_host();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(got[i], 2.0 * ax[i] - y[i], 1e-12);
  }
}

TEST(Blas2, GatherColumn) {
  Device dev(vgpu::gtx280_model());
  const auto a = random_matrix(10, 6, 30);
  DeviceMatrix<double> da(dev, a);
  DeviceBuffer<double> out(dev, 10);
  gather_column(da, 4, out);
  const auto got = out.to_host();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(got[i], a(i, 4));
}

TEST(Blas2, ShapeMismatchThrows) {
  Device dev(vgpu::gtx280_model());
  DeviceMatrix<double> a(dev, 3, 4);
  DeviceBuffer<double> x(dev, 5), y(dev, 3);
  EXPECT_THROW(gemv(1.0, a, x, 0.0, y), Error);
}

// ------------------------------------------------------------------ BLAS-3

TEST(Blas3, GemmMatchesReference) {
  Device dev(vgpu::gtx280_model());
  const auto a = random_matrix(17, 9, 40);
  const auto b = random_matrix(9, 13, 41);
  DeviceMatrix<double> da(dev, a), db(dev, b), dc(dev, 17, 13);
  gemm(1.0, da, db, 0.0, dc);
  const auto expect = ref::gemm(a, b);
  const auto got = dc.to_host();
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 13; ++j) {
      EXPECT_NEAR(got(i, j), expect(i, j), 1e-10);
    }
  }
}

TEST(Blas3, GemmBetaAccumulates) {
  Device dev(vgpu::gtx280_model());
  const auto a = random_matrix(4, 4, 42);
  const auto eye = Matrix<double>::identity(4);
  DeviceMatrix<double> da(dev, a), di(dev, eye), dc(dev, a);
  gemm(1.0, da, di, 1.0, dc);  // c = a*I + c = 2a
  const auto got = dc.to_host();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], 2.0 * a.flat()[i], 1e-12);
  }
}

// ------------------------------------------------------------- dot_rows

/// The one-accumulator loop every hot kernel ran before dot_rows; written
/// out here so the primitive is never checked against itself.
template <typename T>
[[nodiscard]] T scalar_dot(const T* row, const T* y, std::size_t m) {
  T acc{0};
  for (std::size_t k = 0; k < m; ++k) acc += row[k] * y[k];
  return acc;
}

template <typename T>
[[nodiscard]] bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Values spread over ~40 binades with mixed signs, so any reordering of
/// a sum shows up in the low bits.
template <typename T>
[[nodiscard]] std::vector<T> spread_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) {
    x = static_cast<T>(rng.uniform(-1.0, 1.0) *
                       std::ldexp(1.0, static_cast<int>(rng.uniform(-20, 20))));
  }
  return v;
}

template <typename T>
class DotRows : public ::testing::Test {};
using DotRowsTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(DotRows, DotRowsTypes);

TYPED_TEST(DotRows, ContiguousRowsMatchScalarLoopBitForBit) {
  using T = TypeParam;
  for (const std::size_t m :
       {0u, 1u, 3u, 4u, 5u, 7u, 255u, 256u, 257u, 1023u}) {
    // Row counts cover every remainder 0-3 past the 4-wide groups.
    for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
      const std::size_t ld = m + 3;  // padded rows: ld != m
      const auto a = spread_values<T>(rows * ld + 8, 100 + m);
      const auto y = spread_values<T>(m, 200 + m);
      for (const std::size_t lo : {0u, 1u}) {
        if (lo >= rows) continue;
        std::vector<T> out(rows - lo, T{-7});
        dot_rows(a.data(), ld, lo, rows, y.data(), m, out.data());
        for (std::size_t i = lo; i < rows; ++i) {
          const T ref = scalar_dot(a.data() + i * ld, y.data(), m);
          EXPECT_TRUE(same_bits(out[i - lo], ref))
              << "m=" << m << " rows=" << rows << " lo=" << lo << " i=" << i
              << ": " << out[i - lo] << " vs " << ref;
          EXPECT_TRUE(same_bits(dot(a.data() + i * ld, y.data(), m), ref));
        }
      }
    }
  }
}

TYPED_TEST(DotRows, IndexListsWithGapsAndMaskedBlocksMatchScalarLoop) {
  using T = TypeParam;
  // A 768-column sweep in three 256-column blocks, as the pricing kernels
  // run it: block 0 keeps columns with gaps, block 1 is fully masked
  // (empty list: no output is touched), block 2 keeps a few columns so
  // each 1-3 remainder occurs.
  constexpr std::size_t kCols = 768, kBlock = 256;
  for (const std::size_t m : {0u, 1u, 3u, 4u, 5u, 7u, 255u, 256u, 257u}) {
    const auto a = spread_values<T>(kCols * m, 300 + m);
    const auto y = spread_values<T>(m, 400 + m);
    for (const std::size_t tail : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
      std::vector<T> d(kCols, T{-7});
      for (std::size_t lo = 0; lo < kCols; lo += kBlock) {
        std::vector<std::uint32_t> cols;
        for (std::size_t j = lo; j < lo + kBlock; ++j) {
          const bool keep = lo == 0 ? (j * 7) % 5 < 2
                                    : lo == kBlock ? false
                                                   : j < lo + tail;
          if (keep) cols.push_back(static_cast<std::uint32_t>(j));
        }
        std::vector<T> out(cols.size());
        dot_rows(a.data(), m, std::span<const std::uint32_t>(cols), y.data(),
                 m, out.data());
        for (std::size_t t = 0; t < cols.size(); ++t) d[cols[t]] = out[t];
      }
      for (std::size_t j = 0; j < kCols; ++j) {
        const bool masked = j >= kBlock && (j < 2 * kBlock || j >= 2 * kBlock + tail);
        const bool gap = j < kBlock && (j * 7) % 5 >= 2;
        if (masked || gap) {
          EXPECT_EQ(d[j], T{-7}) << "masked column " << j << " was written";
          continue;
        }
        const T ref = scalar_dot(a.data() + j * m, y.data(), m);
        EXPECT_TRUE(same_bits(d[j], ref))
            << "m=" << m << " tail=" << tail << " j=" << j;
      }
    }
  }
}

TYPED_TEST(DotRows, TestDataIsOrderSensitive) {
  // Guard on the two tests above: with this data a reassociated sum does
  // change bits, so bit equality there really pins the summation order.
  using T = TypeParam;
  const std::size_t m = 1023;
  const auto a = spread_values<T>(m, 100 + m);
  const auto y = spread_values<T>(m, 200 + m);
  T reversed{0};
  for (std::size_t k = m; k-- > 0;) reversed += a[k] * y[k];
  EXPECT_FALSE(same_bits(reversed, scalar_dot(a.data(), y.data(), m)));
}

TYPED_TEST(DotRows, MultiplyAndAddAreNeverFused) {
  // row . y = (-1)(1) + a*b with a*b = 1 - 2^-2e: rounding the product
  // first gives exactly 1, so the two-rounding sum is 0, while a fused
  // multiply-add would return -2^-2e. A build that contracts (no
  // -ffp-contract=off on an FMA target) fails here.
  using T = TypeParam;
  const int e = std::numeric_limits<T>::digits / 2 + 2;
  const T a = T{1} + std::ldexp(T{1}, -e);
  const T b = T{1} - std::ldexp(T{1}, -e);
  ASSERT_NE(std::fma(a, b, T{-1}), T{0}) << "inputs do not separate fma";
  const std::size_t rows = 5;  // one 4-wide group + the scalar tail
  std::vector<T> mat, y = {T{1}, b};
  for (std::size_t i = 0; i < rows; ++i) {
    mat.push_back(T{-1});
    mat.push_back(a);
  }
  std::vector<T> out(rows, T{-7});
  dot_rows(mat.data(), 2, 0, rows, y.data(), 2, out.data());
  for (std::size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(same_bits(out[i], T{0})) << "row " << i << ": " << out[i];
  }
  std::vector<T> acc = {T{-1}};
  axpy(a, &b, acc.data(), 1);
  EXPECT_TRUE(same_bits(acc[0], T{0})) << acc[0];
}

TYPED_TEST(DotRows, NegatedAxpyIsTheEliminationStepBitForBit) {
  // pivot_apply and the explicit oracle run row -= f * prow as
  // axpy(-f, prow, row): a - b is a + (-b) in IEEE 754, and rounding to
  // nearest is sign-symmetric, so both forms agree bit for bit —
  // signed zeros included.
  using T = TypeParam;
  auto x = spread_values<T>(1000, 500);
  auto y = spread_values<T>(1000, 600);
  x[0] = T{0};
  y[0] = T{0};
  x[1] = T{0};
  y[1] = -T{0};
  y[2] = x[2] * T{3};  // exact cancellation at f = 3
  for (const T f : {T{3}, T{-0.625}, std::ldexp(T{1}, -30)}) {
    std::vector<T> got = y;
    axpy(-f, x.data(), got.data(), x.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      const T ref = y[j] - f * x[j];
      EXPECT_TRUE(same_bits(got[j], ref)) << "f=" << f << " j=" << j;
    }
  }
}

// ------------------------------------------------------------------ invert

TEST(Invert, InverseTimesOriginalIsIdentity) {
  // Diagonally dominant -> well conditioned.
  auto a = random_matrix(12, 12, 50);
  for (std::size_t i = 0; i < 12; ++i) a(i, i) += 15.0;
  const auto inv = ref::invert(a);
  const auto prod = ref::gemm(a, inv);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Invert, SingularMatrixThrows) {
  Matrix<double> a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // third row all zeros
  EXPECT_THROW((void)ref::invert(a), Error);
}

TEST(Invert, RequiresSquare) {
  EXPECT_THROW((void)ref::invert(Matrix<double>(2, 3)), Error);
}

TEST(Invert, PermutationMatrix) {
  Matrix<double> p(3, 3);
  p(0, 2) = 1.0;
  p(1, 0) = 1.0;
  p(2, 1) = 1.0;
  const auto inv = ref::invert(p);
  // inverse of a permutation is its transpose
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(inv(i, j), p(j, i), 1e-12);
  }
}

}  // namespace
}  // namespace gs::vblas
