// Google-benchmark microbenches of the substrate's functional execution.
//
// These measure real host wall time of the virtual-GPU kernels (not the
// modeled device time the figures use) — they guard the simulator's own
// performance so the table/figure sweeps stay tractable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "lp/generators.hpp"
#include "simplex/device_revised.hpp"
#include "simplex/host_steps.hpp"
#include "sparse/device_csr.hpp"
#include "support/rng.hpp"
#include "vblas/blas1.hpp"
#include "vblas/blas2.hpp"
#include "vgpu/primitives.hpp"

namespace {

using namespace gs;

void BM_ReduceSum(benchmark::State& state) {
  vgpu::Device dev(vgpu::gtx280_model());
  const auto n = static_cast<std::size_t>(state.range(0));
  vgpu::DeviceBuffer<double> buf(dev, n);
  vgpu::iota(buf, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::reduce_sum(buf));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ReduceSum)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Argmin(benchmark::State& state) {
  vgpu::Device dev(vgpu::gtx280_model());
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<double> host(n);
  for (auto& v : host) v = rng.uniform(-1.0, 1.0);
  vgpu::DeviceBuffer<double> buf(dev, std::span<const double>(host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vgpu::argmin(buf));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_Argmin)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Gemv(benchmark::State& state) {
  vgpu::Device dev(vgpu::gtx280_model());
  const auto m = static_cast<std::size_t>(state.range(0));
  vblas::Matrix<double> host(m, m);
  Xoshiro256 rng(2);
  for (auto& v : host.flat()) v = rng.uniform(-1.0, 1.0);
  vblas::DeviceMatrix<double> a(dev, host);
  vgpu::DeviceBuffer<double> x(dev, m), y(dev, m);
  vgpu::fill(x, 1.0);
  for (auto _ : state) {
    vblas::gemv(1.0, a, x, 0.0, y);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(m * m));
}
BENCHMARK(BM_Gemv)->Arg(256)->Arg(512)->Arg(1024);

void BM_Spmv(benchmark::State& state) {
  vgpu::Device dev(vgpu::gtx280_model());
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto problem = lp::random_sparse_lp(
      {.rows = m, .cols = 4 * m, .density = 0.01, .seed = 3});
  const auto csr = lp::to_standard_form(problem).csr_a();
  sparse::DeviceCsr<double> a(dev, csr);
  vgpu::DeviceBuffer<double> x(dev, a.cols()), y(dev, a.rows());
  vgpu::fill(x, 1.0);
  for (auto _ : state) {
    sparse::spmv(1.0, a, x, 0.0, y);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(a.nnz()));
}
BENCHMARK(BM_Spmv)->Arg(256)->Arg(1024);

void BM_SimplexIteration(benchmark::State& state) {
  // Whole-solve wall time per iteration at a representative size: the
  // number that bounds how far the figure sweeps can reach.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto problem = lp::random_dense_lp({.rows = m, .cols = m, .seed = 4});
  std::size_t iterations = 0;
  for (auto _ : state) {
    vgpu::Device dev(vgpu::gtx280_model());
    simplex::DeviceRevisedSimplex<double> solver(dev);
    const auto r = solver.solve(problem);
    iterations += r.stats.iterations;
  }
  state.SetItemsProcessed(static_cast<long>(iterations));
}
BENCHMARK(BM_SimplexIteration)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The dense hot kernels of one fused device iteration (price_select,
// ftran_ratio, pivot_apply) and the host engine's pricing sweep, on an
// m x m dense LP (n_aug = 2m). Per-kernel wall baselines for simulator
// speed work; every number here is host wall time.
// ---------------------------------------------------------------------

/// Standard form + augmentation of the m x m dense bench LP.
struct DenseSetup {
  explicit DenseSetup(std::size_t m)
      : sf(lp::to_standard_form(
            lp::random_dense_lp({.rows = m, .cols = m, .seed = 5}))),
        aug(simplex::augment(sf)) {}
  lp::StandardFormLp sf;
  simplex::AugmentedLp aug;
};

template <typename Real>
[[nodiscard]] std::vector<Real> random_reals(std::size_t n, std::uint64_t seed,
                                             double lo, double hi) {
  Xoshiro256 rng(seed);
  std::vector<Real> v(n);
  for (auto& x : v) x = static_cast<Real>(rng.uniform(lo, hi));
  return v;
}

template <typename Real>
void BM_PriceSelect(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const DenseSetup setup(m);
  const std::size_t n = setup.aug.n_aug;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DenseAt<Real> at(dev, setup.aug);
  // Every nonbasic column priced; the slack crash basis is masked.
  std::vector<Real> mask_h(n, Real{1});
  for (const std::uint32_t j : setup.aug.basic) mask_h[j] = Real{0};
  const auto pi_h = random_reals<Real>(m, 6, -1.0, 1.0);
  const auto c_h = random_reals<Real>(n, 7, -1.0, 0.0);
  vgpu::DeviceBuffer<Real> pi(dev, std::span<const Real>(pi_h)),
      c(dev, std::span<const Real>(c_h)),
      mask(dev, std::span<const Real>(mask_h)), d(dev, n), score(dev, n),
      devex_w(dev, n), desc(dev, simplex::kDescSlots);
  vgpu::fill(devex_w, Real{1});
  for (auto _ : state) {
    at.price_select(pi, c, mask, d, score, devex_w, desc,
                    simplex::EnteringRule::kDantzig, Real(1e-9));
    benchmark::DoNotOptimize(d.host_view().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n * m));
}
BENCHMARK_TEMPLATE(BM_PriceSelect, float)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_PriceSelect, double)->Arg(256)->Arg(1024);

template <typename Real>
void BM_FtranRatio(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const DenseSetup setup(m);
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DenseAt<Real> at(dev, setup.aug);
  vblas::Matrix<Real> binv_h(m, m);
  const auto flat = random_reals<Real>(m * m, 8, -1.0, 1.0);
  std::copy(flat.begin(), flat.end(), binv_h.flat().begin());
  vblas::DeviceMatrix<Real> binv(dev, binv_h);
  const auto beta_h = random_reals<Real>(m, 9, 0.0, 1.0);
  std::vector<Real> desc_h(simplex::kDescSlots, Real{0});
  desc_h[simplex::kDescQ] = static_cast<Real>(m / 2);  // a structural column
  vgpu::DeviceBuffer<Real> beta(dev, std::span<const Real>(beta_h)),
      alpha(dev, m), ratio(dev, m),
      desc(dev, std::span<const Real>(desc_h));
  for (auto _ : state) {
    at.ftran_ratio_select(binv, beta, alpha, ratio, desc, Real(1e-9));
    benchmark::DoNotOptimize(alpha.host_view().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(m * m));
}
BENCHMARK_TEMPLATE(BM_FtranRatio, float)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_FtranRatio, double)->Arg(256)->Arg(1024);

/// The rank-1 update of pivot_apply (its block body, launched as the
/// engine launches it; the pivot lane's three scalar pokes are omitted).
template <typename Real>
void BM_PivotApply(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  vgpu::Device dev(vgpu::gtx280_model());
  vblas::Matrix<Real> binv_h(m, m);
  const auto flat = random_reals<Real>(m * m, 10, -1.0, 1.0);
  std::copy(flat.begin(), flat.end(), binv_h.flat().begin());
  vblas::DeviceMatrix<Real> binv(dev, binv_h);
  const std::size_t p = m / 3;
  auto alpha_h = random_reals<Real>(m, 11, -1e-3, 1e-3);
  alpha_h[p] = Real{1};
  const std::vector<Real> prow_h(binv_h.row(p).begin(), binv_h.row(p).end());
  vgpu::DeviceBuffer<Real> prow(dev, std::span<const Real>(prow_h)),
      alpha(dev, std::span<const Real>(alpha_h));
  auto bs = binv.device_span();
  for (auto _ : state) {
    dev.launch_blocks(
        "pivot_apply", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m),
         double((2 * m * m + 2 * m + 4) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          simplex::eliminate_rows<Real>(bs, prow.device_span(),
                                        alpha.device_span(), m, p, Real{1},
                                        Real{0}, lo, hi);
        });
    benchmark::DoNotOptimize(bs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(m * m));
}
BENCHMARK_TEMPLATE(BM_PivotApply, float)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_PivotApply, double)->Arg(256)->Arg(1024);

/// Standard form + augmentation of the e2ebench sparse-basis instance:
/// m x 4m at density 0.005 (m = 512 there).
struct SparseSetup {
  explicit SparseSetup(std::size_t m)
      : sf(lp::to_standard_form(lp::random_sparse_lp(
            {.rows = m, .cols = 4 * m, .density = 0.005, .seed = 1}))),
        aug(simplex::augment(sf)) {}
  lp::StandardFormLp sf;
  simplex::AugmentedLp aug;
};

template <typename Setup>
void BM_HostPrice(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Setup setup(m);
  const simplex::SolverOptions opt;
  simplex::CostMeter meter(vgpu::cpu2009_model());
  simplex::host::State s(setup.aug, opt, meter);
  s.c = setup.aug.c_phase2;
  s.pi = random_reals<double>(m, 12, -1.0, 1.0);
  for (auto _ : state) {
    simplex::host::price(s);
    benchmark::DoNotOptimize(s.d.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(setup.aug.n_aug * m));
}
BENCHMARK_TEMPLATE(BM_HostPrice, DenseSetup)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_HostPrice, SparseSetup)->Arg(512);

// Building the host engines' A^T once per solve, on the m x m dense LP:
// the CSR builder against the dense copy.
void BM_HostAtCsr(benchmark::State& state) {
  const DenseSetup setup(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto at = setup.aug.csr_at();
    benchmark::DoNotOptimize(at.values().data());
  }
}
BENCHMARK(BM_HostAtCsr)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_HostAtDense(benchmark::State& state) {
  const DenseSetup setup(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto at = setup.aug.dense_at();
    benchmark::DoNotOptimize(at.flat().data());
  }
}
BENCHMARK(BM_HostAtDense)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
