// The device engine's fusion matrix against committed decision logs.
//
// The device engine runs one fused iteration chain under both basis
// representations: the pricing chain, the FTRAN/ratio chain and the basis
// update collapse into single launches, and the scalar PCIe ping-pong
// becomes a packed descriptor readback. None of that may change the
// algorithm. Every solve of the matrix below was recorded with the
// pre-fusion reference kernels before they were deleted
// (data/golden/fusion, provenance in data/golden/MANIFEST). Each case is
// solved again and must match its log pivot for pivot: zero divergence
// and zero deltas under record::diff, the same pivot count, a byte-
// identical log, and the recorded status, iteration count and objective
// bits (data/golden/fusion/INDEX). The budget tests pin the launch and
// transfer counts the fusion exists to buy.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "lp/lp_text.hpp"
#include "lp/problem.hpp"
#include "record/record.hpp"
#include "simplex/device_revised.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {
namespace {

const std::string kGoldenDir = std::string(GS_SOURCE_DIR) + "/data/golden/";

/// One solve of the matrix. Names read
/// <basis>.<problem>[.csr].<precision>.<pricing>[.variant].
struct Case {
  std::string name;
  lp::LpProblem problem;
  bool single = false;     ///< float instead of double
  bool sparse_at = false;  ///< SparseAt instead of DenseAt
  BasisScheme basis = BasisScheme::kExplicitInverse;
  PricingRule rule = PricingRule::kHybrid;
  std::size_t max_iterations = 50000;
  std::size_t refactor_period = 0;
  std::size_t reinversion_period = 0;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> fusion_matrix() {
  std::vector<Case> cases;
  const auto add = [&](const std::string& tag, const lp::LpProblem& problem,
                       bool single, bool sparse_at, BasisScheme basis,
                       PricingRule rule,
                       const std::string& variant = "") -> Case& {
    Case c;
    c.name = std::string(basis == BasisScheme::kExplicitInverse ? "ei"
                                                                : "pf") +
             "." + tag + (sparse_at ? ".csr." : ".") +
             (single ? "float" : "double") + "." +
             std::string(to_string(rule)) + variant;
    c.problem = problem;
    c.single = single;
    c.sparse_at = sparse_at;
    c.basis = basis;
    c.rule = rule;
    cases.push_back(std::move(c));
    return cases.back();
  };
  const PricingRule rules[] = {PricingRule::kHybrid, PricingRule::kDantzig,
                               PricingRule::kBland, PricingRule::kDevex};
  // Equality rows force artificials: phase 1 and the phase transition.
  const auto transport = lp::transportation(5, 6, 17);
  // Phase 1 leaves two artificials basic at level zero: two drive-outs.
  const auto driveout =
      lp::read_lp_file(std::string(GS_SOURCE_DIR) + "/data/driveout.lp");
  const auto sparse = lp::random_sparse_lp(
      {.rows = 32, .cols = 64, .density = 0.2, .seed = 7});
  // n_aug = 450 > one 256-lane block: the pricing's cross-block combine.
  const auto wide = lp::random_dense_lp({.rows = 150, .cols = 300, .seed = 3});
  const auto dense32 = lp::random_dense_lp({.rows = 32, .cols = 32, .seed = 9});
  for (const BasisScheme basis :
       {BasisScheme::kExplicitInverse, BasisScheme::kProductForm}) {
    for (const std::uint64_t seed : {1ull, 5ull, 11ull}) {
      const auto dense =
          lp::random_dense_lp({.rows = 24, .cols = 24, .seed = seed});
      for (const bool single : {false, true}) {
        for (const PricingRule rule : rules) {
          add("dense24_" + std::to_string(seed), dense, single, false, basis,
              rule);
        }
      }
    }
    for (const bool single : {false, true}) {
      add("transport5x6_17", transport, single, false, basis,
          PricingRule::kHybrid);
    }
    for (const bool single : {false, true}) {
      add("driveout", driveout, single, false, basis, PricingRule::kHybrid);
    }
    add("driveout", driveout, false, true, basis, PricingRule::kHybrid);
    for (const PricingRule rule :
         {PricingRule::kDantzig, PricingRule::kBland}) {
      add("dense150x300_3", wide, false, false, basis, rule, ".cap12")
          .max_iterations = 12;
    }
    add("sparse32x64_7", sparse, false, true, basis, PricingRule::kHybrid);
    add("sparse32x64_7", sparse, true, true, basis, PricingRule::kDevex);
    if (basis == BasisScheme::kProductForm) {
      add("sparse32x64_7", sparse, true, true, basis, PricingRule::kHybrid);
      add("sparse32x64_7", sparse, false, true, basis, PricingRule::kDevex);
      add("dense32_9", dense32, false, false, basis, PricingRule::kHybrid,
          ".ri8")
          .reinversion_period = 8;
      // 37 Bland pivots: four reinversions interleave with the iteration.
      add("dense24_11",
          lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 11}), false,
          false, basis, PricingRule::kBland, ".ri8")
          .reinversion_period = 8;
    } else {
      add("dense32_9", dense32, false, false, basis, PricingRule::kHybrid,
          ".rf4")
          .refactor_period = 4;
    }
  }
  return cases;
}

template <typename Real, template <typename> class At>
SolveResult solve_with(const Case& c, record::Recorder& rec) {
  vgpu::Device dev(vgpu::gtx280_model());
  SolverOptions opt;
  opt.pricing = c.rule;
  opt.basis = c.basis;
  opt.max_iterations = c.max_iterations;
  opt.refactor_period = c.refactor_period;
  opt.reinversion_period = c.reinversion_period;
  opt.recorder = &rec;
  DeviceRevisedSimplex<Real, At> solver(dev, opt);
  return solver.solve(c.problem);
}

SolveResult solve_case(const Case& c, record::Recorder& rec) {
  if (c.sparse_at) {
    return c.single ? solve_with<float, SparseAt>(c, rec)
                    : solve_with<double, SparseAt>(c, rec);
  }
  return c.single ? solve_with<float, DenseAt>(c, rec)
                  : solve_with<double, DenseAt>(c, rec);
}

/// One INDEX line: what the reference path's solve ended with.
struct Outcome {
  std::string status;
  std::size_t iterations = 0;
  std::uint64_t objective_bits = 0;
};

const std::map<std::string, Outcome>& golden_index() {
  static const std::map<std::string, Outcome> index = [] {
    std::map<std::string, Outcome> out;
    std::ifstream in(kGoldenDir + "fusion/INDEX");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, bits;
      Outcome o;
      fields >> name >> o.status >> o.iterations >> bits;
      o.objective_bits = std::stoull(bits, nullptr, 16);
      out.emplace(name, o);
    }
    return out;
  }();
  return index;
}

std::size_t pivots(const record::Recording& rec) {
  std::size_t n = 0;
  for (const auto& r : rec.records) {
    if (r.kind == record::RecordKind::kPivot) ++n;
  }
  return n;
}

class FusionGolden : public testing::TestWithParam<Case> {};

TEST_P(FusionGolden, MatchesReferenceLog) {
  const Case& c = GetParam();
  const auto it = golden_index().find(c.name);
  ASSERT_NE(it, golden_index().end()) << "no INDEX line for " << c.name;
  record::Recorder rec;
  const SolveResult r = solve_case(c, rec);
  const record::Recording golden =
      record::Recording::read_file(kGoldenDir + "fusion/" + c.name + ".gsrec");
  const record::Recording& got = rec.recording();

  const record::DiffResult d = record::diff(golden, got);
  ASSERT_TRUE(d.comparable) << d.describe();
  EXPECT_FALSE(d.diverged) << d.describe();
  EXPECT_EQ(d.max_reduced_cost_delta, 0.0);
  EXPECT_EQ(d.max_theta_delta, 0.0);
  EXPECT_EQ(d.common, pivots(golden));
  EXPECT_EQ(pivots(got), pivots(golden));
  std::ostringstream want, have;
  golden.write(want);
  got.write(have);
  EXPECT_EQ(want.str(), have.str()) << "decision log is not byte-identical";

  EXPECT_EQ(std::string(to_string(r.status)), it->second.status);
  EXPECT_EQ(r.stats.iterations, it->second.iterations);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.objective, sizeof bits);
  EXPECT_EQ(bits, it->second.objective_bits) << "objective " << r.objective;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = info.param.name;
  for (char& ch : name) {
    if (ch == '.') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, FusionGolden,
                         testing::ValuesIn(fusion_matrix()), case_name);

TEST(Fusion, IndexListsExactlyTheMatrix) {
  // A log without a case would go stale unchecked.
  const std::vector<Case> cases = fusion_matrix();
  EXPECT_EQ(golden_index().size(), cases.size());
  for (const Case& c : cases) {
    EXPECT_TRUE(golden_index().contains(c.name)) << c.name;
  }
}

TEST(Fusion, LaunchAndTransferBudgetHeld) {
  // A seeded m = 96 solve must average <= 6 kernel launches per iteration
  // (5 without Devex) and exactly one d2h per iteration plus a small
  // solve-constant (descriptor fetch; objective/extraction reads at the
  // phase boundaries).
  const auto problem = lp::random_dense_lp({.rows = 96, .cols = 96, .seed = 3});
  vgpu::Device dev(vgpu::gtx280_model());
  DeviceRevisedSimplex<double> solver(dev);
  const SolveResult r = solver.solve(problem);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_GT(r.stats.iterations, 0u);
  const auto& ds = r.stats.device_stats;
  EXPECT_LE(static_cast<double>(ds.kernel_launches),
            6.0 * static_cast<double>(r.stats.iterations));
  EXPECT_LE(ds.d2h_count, r.stats.iterations + 8);
  // Device-resident pivot state: the iteration loop uploads NOTHING (all
  // H2D happens during workspace setup, before the first launch).
  const std::size_t setup_h2d =
      (96 /*diag*/ + 96 /*beta*/ + 96 /*b*/ + 96 /*cb*/) * sizeof(double) *
          2 /*two phases reload c/cb at most*/ +
      (96 * 192 + 4 * 192) * sizeof(double) /*A^T, c, mask, scores*/;
  EXPECT_LT(ds.h2d_bytes, setup_h2d);
}

TEST(Fusion, ProductFormBudgetHeld) {
  // The product form keeps its pivot state device-resident too: the
  // iteration loop uploads nothing, so a full solve makes exactly the
  // uploads of a solve stopped one iteration into its last phase. It
  // reads back two descriptors per iteration (the entering decision
  // before the eta FTRAN, the leaving decision after the ratio test) plus
  // a solve-constant. Devex on a slack start, hybrid with phase 1.
  struct Budget {
    lp::LpProblem problem;
    PricingRule rule;
  };
  const Budget budgets[] = {
      {lp::random_dense_lp({.rows = 96, .cols = 96, .seed = 3}),
       PricingRule::kDevex},
      {lp::transportation(5, 6, 17), PricingRule::kHybrid}};
  for (const Budget& b : budgets) {
    SolverOptions opt;
    opt.basis = BasisScheme::kProductForm;
    opt.pricing = b.rule;
    vgpu::Device dev(vgpu::gtx280_model());
    const SolveResult r = DeviceRevisedSimplex<double>(dev, opt).solve(
        b.problem);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    ASSERT_GT(r.stats.iterations, 10u);
    // One iteration into the last phase: every phase's cost upload done.
    opt.max_iterations = r.stats.phase1_iterations + 1;
    vgpu::Device dev1(vgpu::gtx280_model());
    const SolveResult r1 = DeviceRevisedSimplex<double>(dev1, opt).solve(
        b.problem);
    ASSERT_EQ(r1.stats.iterations, opt.max_iterations);
    const auto& ds = r.stats.device_stats;
    EXPECT_EQ(ds.h2d_count, r1.stats.device_stats.h2d_count);
    EXPECT_EQ(ds.h2d_bytes, r1.stats.device_stats.h2d_bytes);
    EXPECT_LE(ds.d2h_count, 2 * r.stats.iterations + 8);
    for (const char* gone :
         {"price_reduced", "ratio", "update_beta", "update_binv", "argmin",
          "argmin_final", "find_first_below", "devex_score"}) {
      EXPECT_FALSE(ds.per_kernel.contains(gone)) << gone;
    }
  }
}

}  // namespace
}  // namespace gs::simplex
