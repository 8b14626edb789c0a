// Regression-corpus replay (DESIGN.md §11): every descriptor under
// tests/corpus/ -- past fuzz failures and near-misses -- re-runs through the
// full differential harness on every build. EGEMM_CORPUS_DIR points at the
// source-tree corpus directory (set by tests/CMakeLists.txt).
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme.hpp"
#include "gemm/plan.hpp"
#include "verify/differential.hpp"

namespace egemm::verify {
namespace {

std::vector<FuzzCase> load_corpus() {
  std::vector<FuzzCase> cases;
  const std::filesystem::path dir(EGEMM_CORPUS_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (const std::optional<FuzzCase> fuzz = parse_case(line)) {
        cases.push_back(*fuzz);
      }
    }
  }
  return cases;
}

TEST(CorpusReplay, CorpusIsNonEmptyAndParses) {
  EXPECT_GE(load_corpus().size(), 10u);
}

TEST(CorpusReplay, CorpusCoversEveryLadderRung) {
  // The per-scheme adversarial block must keep at least one entry pinned
  // to every rung of the ladder.
  const std::vector<FuzzCase> corpus = load_corpus();
  std::vector<bool> seen(core::kSchemeCount, false);
  for (const FuzzCase& fuzz : corpus) {
    seen[static_cast<std::size_t>(fuzz.scheme)] = true;
  }
  for (const core::SchemeId rung : core::scheme_ladder()) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(rung)])
        << core::scheme_name(rung);
  }
}

TEST(CorpusReplay, EveryEntryPassesTheDifferentialHarness) {
  const std::vector<FuzzCase> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const FuzzCase& fuzz : corpus) {
    const CaseResult result = run_case(fuzz);
    EXPECT_TRUE(result.engine_match) << format_case(fuzz);
    if (!result.special) {
      for (std::size_t p = 0; p < kPathCount; ++p) {
        EXPECT_EQ(result.paths[p].violations, 0u)
            << format_case(fuzz) << " path "
            << path_label(p);
      }
    }
  }
}

TEST(CorpusReplay, EveryEntryPassesOnEveryLadderRung) {
  // Re-pin each corpus entry's engine differential to every rung in turn:
  // a past failure input must keep packed == reference bitwise no matter
  // which scheme executes it, not only under the rung it was filed for.
  const std::vector<FuzzCase> corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  gemm::GemmContext ctx;
  for (const FuzzCase& base : corpus) {
    for (const core::SchemeId rung : core::scheme_ladder()) {
      FuzzCase fuzz = base;
      fuzz.scheme = rung;
      const CaseResult result = run_case(fuzz, ctx);
      EXPECT_TRUE(result.engine_match) << format_case(fuzz);
    }
  }
}

}  // namespace
}  // namespace egemm::verify
