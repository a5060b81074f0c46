#include "simplex/phase_setup.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace gs::simplex {

namespace {

// FNV-1a, 64-bit. Hashing the exact double bit patterns keeps the digest
// independent of engine and working precision (every engine augments the
// same double-precision standard form).
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
};

}  // namespace

std::uint64_t decision_digest(const AugmentedLp& lp) {
  GS_CHECK_MSG(lp.source != nullptr, "AugmentedLp not initialized");
  Fnv f;
  f.mix(static_cast<std::uint64_t>(lp.m));
  f.mix(static_cast<std::uint64_t>(lp.n));
  f.mix(static_cast<std::uint64_t>(lp.n_aug));
  for (std::size_t i = 0; i < lp.m; ++i) {
    for (const lp::Term& t : lp.source->rows[i]) {
      f.mix(static_cast<std::uint64_t>(t.var));
      f.mix(t.coef);
    }
    f.mix(lp.b[i]);
  }
  for (double c : lp.c_phase2) f.mix(c);
  return f.h;
}

AugmentedLp augment(const lp::StandardFormLp& sf) {
  AugmentedLp out;
  out.m = sf.num_rows();
  out.n = sf.num_cols();
  out.b = sf.b;
  out.source = &sf;

  out.basic.resize(out.m);
  out.binv_diag.resize(out.m);
  out.beta_init.resize(out.m);

  // Crash basis: a row's own slack if present (its coefficient is the row's
  // only entry in that column and stays positive under scaling), otherwise a
  // fresh artificial unit column.
  std::vector<std::uint32_t> artificial_rows;
  for (std::size_t i = 0; i < out.m; ++i) {
    GS_CHECK_MSG(sf.b[i] >= 0.0, "standard form violated: negative rhs");
    const std::int64_t slack = sf.slack_col[i];
    if (slack >= 0) {
      double coef = 0.0;
      for (const lp::Term& t : sf.rows[i]) {
        if (t.var == static_cast<std::uint32_t>(slack)) coef = t.coef;
      }
      GS_CHECK_MSG(coef > 0.0, "slack column lost its positive coefficient");
      out.basic[i] = static_cast<std::uint32_t>(slack);
      out.binv_diag[i] = 1.0 / coef;
      out.beta_init[i] = sf.b[i] / coef;
    } else {
      const auto art_col = static_cast<std::uint32_t>(
          out.n + artificial_rows.size());
      artificial_rows.push_back(static_cast<std::uint32_t>(i));
      out.basic[i] = art_col;
      out.binv_diag[i] = 1.0;
      out.beta_init[i] = sf.b[i];
    }
  }
  out.num_artificial = artificial_rows.size();
  out.artificial_rows = std::move(artificial_rows);
  out.n_aug = out.n + out.num_artificial;

  out.is_artificial.assign(out.n_aug, false);
  for (std::size_t k = 0; k < out.num_artificial; ++k) {
    out.is_artificial[out.n + k] = true;
  }

  out.c_phase1.assign(out.n_aug, 0.0);
  for (std::size_t k = 0; k < out.num_artificial; ++k) {
    out.c_phase1[out.n + k] = 1.0;
  }
  out.c_phase2.assign(out.n_aug, 0.0);
  for (std::size_t j = 0; j < out.n; ++j) out.c_phase2[j] = sf.c[j];

  // Remember which row each artificial column covers (needed to rebuild
  // dense/CSR forms without keeping artificial_rows in the public struct:
  // the artificial for row i is exactly the k-th appended one).
  return out;
}

vblas::Matrix<double> AugmentedLp::dense_at() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  vblas::Matrix<double> at(n_aug, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) at(t.var, i) = t.coef;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) at(n + k++, i) = 1.0;
  }
  GS_CHECK(k == num_artificial);
  return at;
}

sparse::CsrMatrix<double> AugmentedLp::csr_at() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  const auto& rows = source->rows;
  // Column counts. Each row lists its columns strictly ascending (the
  // standard form's contract, checked here): so every column's row indices
  // come out strictly ascending, and the fill below can walk column tiles.
  std::vector<std::uint32_t> offsets(n_aug + 1, 0);
  for (const auto& row : rows) {
    for (std::size_t p = 0; p < row.size(); ++p) {
      GS_CHECK_MSG(p == 0 || row[p - 1].var < row[p].var,
                   "standard-form row not strictly sorted by column");
      ++offsets[row[p].var + 1];
    }
  }
  for (std::size_t k = 0; k < num_artificial; ++k) ++offsets[n + k + 1];
  for (std::size_t j = 1; j <= n_aug; ++j) offsets[j] += offsets[j - 1];
  const std::size_t nnz = offsets[n_aug];
  std::vector<std::uint32_t> rowidx(nnz);
  std::vector<double> vals(nnz);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  // Fill a tile of a few columns at a time, every row contributing its run
  // of that tile. A row-at-a-time scatter sends consecutive writes one
  // column segment apart (m entries in a dense column), each to a different
  // page; the sixteen write streams of an eight-column tile stay cached.
  // Tiles widen on sparse inputs so that the per-tile pass over the rows
  // costs at most a quarter of the nonzeros.
  constexpr std::size_t kMinTile = 8;
  const std::size_t row_passes = nnz / (4 * std::max<std::size_t>(m, 1));
  const std::size_t tiles = std::clamp<std::size_t>(
      row_passes, 1, std::max<std::size_t>(1, (n + kMinTile - 1) / kMinTile));
  const std::size_t width = (n + tiles - 1) / tiles;
  std::vector<std::size_t> next(m, 0);
  for (std::size_t lo = 0; lo < n; lo += width) {
    const std::size_t hi = std::min(n, lo + width);
    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = rows[i];
      std::size_t p = next[i];
      for (; p < row.size() && row[p].var < hi; ++p) {
        const std::uint32_t pos = cursor[row[p].var]++;
        rowidx[pos] = static_cast<std::uint32_t>(i);
        vals[pos] = row[p].coef;
      }
      next[i] = p;
    }
  }
  for (std::size_t k = 0; k < num_artificial; ++k) {
    const std::uint32_t pos = offsets[n + k];
    rowidx[pos] = artificial_rows[k];
    vals[pos] = 1.0;
  }
  return sparse::CsrMatrix<double>(n_aug, m, std::move(offsets),
                                   std::move(rowidx), std::move(vals));
}

vblas::Matrix<double> AugmentedLp::dense_a() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  vblas::Matrix<double> a(m, n_aug);
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) a(i, t.var) = t.coef;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) a(i, n + k++) = 1.0;
  }
  return a;
}

}  // namespace gs::simplex
