// Documentation sanity: every `*.md` cross-reference in the repo's
// top-level documents must point at a file that exists. Keeps README /
// DESIGN / OBSERVABILITY / ROADMAP links from rotting as the tree moves.
//
// GS_SOURCE_DIR is injected by CMake as the repository root.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef GS_SOURCE_DIR
#error "GS_SOURCE_DIR must be defined to the repository root"
#endif

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool is_ref_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '/' || c == '-';
}

/// Blank out every URL (scheme://...) so paths inside external links are
/// never mistaken for repo-relative references.
std::string strip_urls(std::string text) {
  std::size_t pos = 0;
  while ((pos = text.find("://", pos)) != std::string::npos) {
    std::size_t begin = pos;
    while (begin > 0 &&
           std::isalpha(static_cast<unsigned char>(text[begin - 1]))) {
      --begin;
    }
    std::size_t end = pos + 3;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end])) &&
           text[end] != ')' && text[end] != '>' && text[end] != '"') {
      ++end;
    }
    for (std::size_t k = begin; k < end; ++k) text[k] = ' ';
    pos = end;
  }
  return text;
}

/// Extract every token shaped like a markdown-file reference: a maximal
/// [A-Za-z0-9_./-]+ run ending in ".md". Glob patterns are produced by
/// the scan but filtered by the caller; URLs must be stripped first.
std::vector<std::string> md_references(const std::string& text) {
  std::vector<std::string> refs;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_ref_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && is_ref_char(text[j])) ++j;
    std::string token = text.substr(i, j - i);
    // Trim trailing sentence punctuation the character class admits.
    while (!token.empty() && (token.back() == '.' || token.back() == '-')) {
      token.pop_back();
    }
    if (token.size() > 3 && token.ends_with(".md")) refs.push_back(token);
    i = j;
  }
  return refs;
}

TEST(Docs, EveryMarkdownCrossReferenceResolves) {
  const fs::path root(GS_SOURCE_DIR);
  ASSERT_TRUE(fs::exists(root));

  std::vector<fs::path> docs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".md") {
      continue;
    }
    // SNIPPETS.md cites file paths inside *external* repositories as
    // provenance; those are not repo-relative cross-references.
    if (entry.path().filename() == "SNIPPETS.md") continue;
    docs.push_back(entry.path());
  }
  ASSERT_FALSE(docs.empty()) << "no top-level markdown files under " << root;

  std::size_t checked = 0;
  for (const fs::path& doc : docs) {
    const std::string text = strip_urls(read_file(doc));
    for (const std::string& ref : md_references(text)) {
      if (ref.find('*') != std::string::npos) continue;  // glob pattern
      // References resolve relative to the repo root (where the docs live).
      const fs::path target = root / ref;
      EXPECT_TRUE(fs::exists(target))
          << doc.filename().string() << " references " << ref
          << " which does not exist";
      ++checked;
    }
  }
  // The suite is vacuous if the scan finds nothing; README alone links
  // several documents, so demand a sane floor.
  EXPECT_GE(checked, 5u);
}

TEST(Docs, CoreDocumentsExist) {
  const fs::path root(GS_SOURCE_DIR);
  for (const char* name : {"README.md", "DESIGN.md", "OBSERVABILITY.md",
                           "ROADMAP.md", "SERVICE.md", "CHECKING.md"}) {
    EXPECT_TRUE(fs::exists(root / name)) << name << " missing";
  }
}

// The static-analyzer contract is documented where its tests say it is:
// CHECKING.md carries the "Static analysis" section with the report
// schema name, and README's CLI tour mentions the --analyze flag. These
// strings are load-bearing (tests/test_analyze.cpp and lp_cli reference
// them), so their disappearance is a doc regression, not a reword.
TEST(Docs, StaticAnalysisSectionIsDocumented) {
  const fs::path root(GS_SOURCE_DIR);
  const std::string checking = read_file(root / "CHECKING.md");
  EXPECT_NE(checking.find("## Static analysis"), std::string::npos);
  EXPECT_NE(checking.find("gs-analyze-v1"), std::string::npos);
  EXPECT_NE(checking.find("Static vs dynamic"), std::string::npos);
  const std::string readme = read_file(root / "README.md");
  EXPECT_NE(readme.find("--analyze"), std::string::npos);
}

// Same contract for the roofline profiler: OBSERVABILITY.md carries the
// "Profiler" section with the schema name and the bound-classification
// vocabulary, and README's tour mentions the --profile flag. These
// strings are load-bearing (tests/test_profile.cpp, lp_cli and
// svc_traffic reference them).
TEST(Docs, ProfilerSectionIsDocumented) {
  const fs::path root(GS_SOURCE_DIR);
  const std::string obs = read_file(root / "OBSERVABILITY.md");
  EXPECT_NE(obs.find("## Profiler"), std::string::npos);
  EXPECT_NE(obs.find("gs-profile-v1"), std::string::npos);
  EXPECT_NE(obs.find("launch-bound"), std::string::npos);
  EXPECT_NE(obs.find("Tiling invariant"), std::string::npos);
  const std::string readme = read_file(root / "README.md");
  EXPECT_NE(readme.find("--profile"), std::string::npos);
}

// Same contract for the telemetry pipeline and SLO engine:
// OBSERVABILITY.md carries the "Telemetry" section with the schema name
// and the burn-rate / error-budget vocabulary, and README's tour mentions
// the --slo flag. These strings are load-bearing
// (tests/test_telemetry.cpp, lp_cli and svc_traffic reference them).
TEST(Docs, TelemetrySectionIsDocumented) {
  const fs::path root(GS_SOURCE_DIR);
  const std::string obs = read_file(root / "OBSERVABILITY.md");
  EXPECT_NE(obs.find("## Telemetry"), std::string::npos);
  EXPECT_NE(obs.find("gs-telemetry-v1"), std::string::npos);
  EXPECT_NE(obs.find("burn-rate"), std::string::npos);
  EXPECT_NE(obs.find("error budget"), std::string::npos);
  const std::string readme = read_file(root / "README.md");
  EXPECT_NE(readme.find("--slo"), std::string::npos);
}

// Same contract for the basis-oracle seam and the dual warm-start path:
// DESIGN.md carries the "Basis oracles" section with the refactorization
// policy, SERVICE.md's warm-cache section names the dual engine, and
// README's tour and decision table mention --basis / the dual engine.
// These strings are load-bearing (tests/test_basis.cpp, test_service.cpp
// and lp_cli reference the same vocabulary).
TEST(Docs, BasisOracleSectionIsDocumented) {
  const fs::path root(GS_SOURCE_DIR);
  const std::string design = read_file(root / "DESIGN.md");
  EXPECT_NE(design.find("## Basis oracles"), std::string::npos);
  EXPECT_NE(design.find("ProductFormOracle"), std::string::npos);
  EXPECT_NE(design.find("Refactorization policy"), std::string::npos);
  const std::string service = read_file(root / "SERVICE.md");
  EXPECT_NE(service.find("DualRevisedSimplex"), std::string::npos);
  EXPECT_NE(service.find("no phase 1"), std::string::npos);
  const std::string readme = read_file(root / "README.md");
  EXPECT_NE(readme.find("--basis"), std::string::npos);
  EXPECT_NE(readme.find("DualRevisedSimplex"), std::string::npos);
}

// DESIGN.md documents the one primal iteration skeleton and what a step
// set owns, next to the basis oracles it drives.
TEST(Docs, PrimalDriverSectionIsDocumented) {
  const fs::path root(GS_SOURCE_DIR);
  const std::string design = read_file(root / "DESIGN.md");
  EXPECT_NE(design.find("## Primal driver"), std::string::npos);
  EXPECT_NE(design.find("primal_driver.hpp"), std::string::npos);
  EXPECT_NE(design.find("step set"), std::string::npos);
}

}  // namespace
