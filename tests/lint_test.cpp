// Fixture tests for sdm_lint (tools/lint): every check has at least one
// firing and one quiet snippet, suppressions and allowlists are honored, and
// the real src/ tree (via SDM_SOURCE_DIR) lints clean — so `ctest -R lint`
// proves both that the checks bite and that the codebase satisfies them.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint_engine.h"

namespace sdm_lint {
namespace {

/// Lints one in-memory source file (no tests/ texts).
std::vector<Finding> LintSrc(const std::string& code,
                             const std::string& path = "src/core/sample.cpp") {
  LintInput in;
  in.files.emplace_back(path, code);
  return RunLint(in);
}

/// True when some finding came from `check`.
bool Fired(const std::vector<Finding>& findings, const std::string& check) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.check == check; });
}

std::string Describe(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + " [" + f.check + "] " +
           f.message + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

TEST(NoWallClock, FiresOnChronoClocksAndLibcTime) {
  const auto findings = LintSrc(R"cpp(
    int64_t Now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
    long Stamp() { return std::time(nullptr); }
  )cpp");
  ASSERT_EQ(findings.size(), 2u) << Describe(findings);
  EXPECT_EQ(findings[0].check, "no-wall-clock");
  EXPECT_EQ(findings[1].check, "no-wall-clock");
}

TEST(NoWallClock, QuietOnVirtualTimeAndLookalikes) {
  const auto findings = LintSrc(R"cpp(
    class EventLoop {
     public:
      SimTime time() const;            // declaration, not a call
    };
    SimTime Probe(const EventLoop& loop, Sampler* s) {
      s->time(3);                      // member of some other type
      return loop.time();
    }
    int Mine() { return other::time(1); }  // not the libc call
  )cpp");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(NoWallClock, AllowlistedFilesMayReadTheHostClock) {
  const std::string code =
      "double Seconds() { return std::chrono::steady_clock::now().time_since_epoch().count() * 1e-9; }";
  EXPECT_TRUE(Fired(LintSrc(code, "src/core/timer.cpp"), "no-wall-clock"));
  EXPECT_FALSE(Fired(LintSrc(code, "src/bench/bench_util.h"), "no-wall-clock"));
  EXPECT_TRUE(Fired(LintSrc(code, "src/common/thread_pool.cpp"), "no-wall-clock"));
}

// ---------------------------------------------------------------------------
// no-ambient-rng
// ---------------------------------------------------------------------------

TEST(NoAmbientRng, FiresOnAmbientEntropySources) {
  const auto findings = LintSrc(R"cpp(
    uint64_t SeedFromNoise() { std::random_device rd; return rd(); }
    int Roll() { int pips = rand() % 6; return pips; }
    std::mt19937 gen;  // unseeded engine: replays diverge
  )cpp");
  EXPECT_EQ(findings.size(), 3u) << Describe(findings);
  for (const Finding& f : findings) EXPECT_EQ(f.check, "no-ambient-rng");
}

TEST(NoAmbientRng, QuietOnSeededEnginesAndLookalikes) {
  const auto findings = LintSrc(R"cpp(
    std::mt19937 MakeEngine(uint64_t seed) { return std::mt19937(seed); }
    double Draw(Rng& rng) { return rng.NextDouble(0.0, 1.0); }
    int Member(Dist& d) { return d.rand(); }  // member, not libc rand()
  )cpp");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(NoAmbientRng, RngImplementationItselfIsAllowlisted) {
  const std::string code = "std::mt19937_64 engine_;  // seeded in the ctor";
  EXPECT_TRUE(Fired(LintSrc(code, "src/core/sampler.h"), "no-ambient-rng"));
  EXPECT_FALSE(Fired(LintSrc(code, "src/common/rng.h"), "no-ambient-rng"));
  EXPECT_FALSE(Fired(LintSrc(code, "src/common/rng.cpp"), "no-ambient-rng"));
}

// ---------------------------------------------------------------------------
// ordered-exports
// ---------------------------------------------------------------------------

TEST(OrderedExports, FiresOnUnorderedRangeForInExportPath) {
  const auto findings = LintSrc(R"cpp(
    class Ledger {
      std::unordered_map<std::string, uint64_t> counts_;
      std::string ExportJson() const {
        std::string out;
        for (const auto& [key, value] : counts_) {  // unspecified order!
          out += key;
        }
        return out;
      }
    };
  )cpp");
  ASSERT_TRUE(Fired(findings, "ordered-exports")) << Describe(findings);
  EXPECT_NE(findings[0].message.find("counts_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ExportJson"), std::string::npos);
}

TEST(OrderedExports, QuietOutsideExportPathsAndOnOrderedMaps) {
  const auto findings = LintSrc(R"cpp(
    class Ledger {
      std::unordered_map<std::string, uint64_t> counts_;
      std::map<std::string, uint64_t> sorted_;
      uint64_t Total() const {           // order-independent fold, not an export
        uint64_t sum = 0;
        for (const auto& [key, value] : counts_) sum += value;
        return sum;
      }
      std::string ExportJson() const {   // ordered container: byte-stable
        std::string out;
        for (const auto& [key, value] : sorted_) out += key;
        return out;
      }
    };
  )cpp");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

// ---------------------------------------------------------------------------
// knob-inertness
// ---------------------------------------------------------------------------

constexpr char kTuningFixture[] = R"cpp(
  struct TuningConfig {
    /// Documented knob with a default.
    int alpha_budget = 4;
    bool beta_enabled = false;
    std::vector<int> gamma_weights{1, 2, 3};
    [[nodiscard]] Status Validate() const;   // member function: not a knob
    static constexpr int kNotAKnob = 7;      // static: not a knob
  };
)cpp";

std::vector<Finding> LintTuning(const std::string& test_text) {
  LintInput in;
  in.files.emplace_back("src/core/tuning.h", kTuningFixture);
  in.test_texts.emplace_back("tests/sample_test.cpp", test_text);
  return RunLint(in);
}

TEST(KnobInertness, FlagsKnobsNeverMentionedInTests) {
  const auto findings =
      LintTuning("cfg.tuning.alpha_budget = 8;\n// gamma_weights covered here\n");
  ASSERT_EQ(findings.size(), 1u) << Describe(findings);
  EXPECT_EQ(findings[0].check, "knob-inertness");
  EXPECT_NE(findings[0].message.find("beta_enabled"), std::string::npos);
}

TEST(KnobInertness, WordBoundaryMentionsOnlyNoSubstrings) {
  // `xalpha_budgets` must NOT count as a mention of alpha_budget.
  const auto findings = LintTuning(
      "int xalpha_budgets = 1; t.beta_enabled = true; t.gamma_weights = {};\n");
  ASSERT_EQ(findings.size(), 1u) << Describe(findings);
  EXPECT_NE(findings[0].message.find("alpha_budget"), std::string::npos);
}

TEST(KnobInertness, CleanWhenEveryKnobHasATest) {
  const auto findings = LintTuning(
      "t.alpha_budget = 1; t.beta_enabled = true; t.gamma_weights.clear();\n");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

// ---------------------------------------------------------------------------
// obs-name-prefix
// ---------------------------------------------------------------------------

TEST(ObsNamePrefix, FiresOnBadLiteralAndMissingPrefix) {
  const auto bad_literal = LintSrc(
      R"cpp(auto* c = ObsCounter(reg, prefix + "Queries/Total");)cpp");
  ASSERT_TRUE(Fired(bad_literal, "obs-name-prefix")) << Describe(bad_literal);

  const auto no_prefix = LintSrc(
      R"cpp(auto* c = ObsCounter(reg, "queries/total");)cpp");
  ASSERT_TRUE(Fired(no_prefix, "obs-name-prefix")) << Describe(no_prefix);
  EXPECT_NE(no_prefix[0].message.find("runtime source prefix"), std::string::npos);
}

TEST(ObsNamePrefix, QuietOnSchemeConformingRegistrations) {
  const auto findings = LintSrc(R"cpp(
    void Register(Observability* obs, const std::string& prefix) {
      auto* reads = ObsCounter(obs, prefix + "device/reads");
      auto* depth = ObsGauge(obs, prefix + "queue/depth_rows");
      auto* lat = ObsHist(obs, prefix + "lookup/latency_ns");
    }
  )cpp");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(ObsNamePrefix, ObsLayerItselfIsExempt) {
  const std::string code = R"cpp(auto* c = ObsCounter(reg, "Raw");)cpp";
  EXPECT_TRUE(Fired(LintSrc(code, "src/serving/host.cpp"), "obs-name-prefix"));
  EXPECT_FALSE(Fired(LintSrc(code, "src/obs/metrics.cpp"), "obs-name-prefix"));
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(Suppression, AllowOnTheOffendingLineIsHonored) {
  const auto findings = LintSrc(
      "long Stamp() { return std::time(nullptr); }  // sdm-lint: allow(no-wall-clock)\n");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(Suppression, AllowOnTheLineAboveIsHonored) {
  const auto findings = LintSrc(
      "// sdm-lint: allow(no-wall-clock) -- bench-only code path\n"
      "long Stamp() { return std::time(nullptr); }\n");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(Suppression, WildcardAllowSuppressesEveryCheck) {
  const auto findings = LintSrc(
      "std::mt19937 gen;  // sdm-lint: allow(*)\n");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(Suppression, AllowOfADifferentCheckDoesNotSuppress) {
  const auto findings = LintSrc(
      "std::mt19937 gen;  // sdm-lint: allow(no-wall-clock)\n");
  EXPECT_TRUE(Fired(findings, "no-ambient-rng")) << Describe(findings);
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

TEST(LintTree, RealSourceTreeLintsClean) {
  LintInput input;
  std::string error;
  ASSERT_TRUE(LoadTree(SDM_SOURCE_DIR, &input, &error)) << error;
  // Sanity: this really is the repository, not an empty directory.
  EXPECT_GT(input.files.size(), 50u);
  EXPECT_GT(input.test_texts.size(), 10u);
  const auto findings = RunLint(input);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

}  // namespace
}  // namespace sdm_lint
