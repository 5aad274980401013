/**
 * @file
 * Fixture-driven self-test of dilu_lint (tools/lint/).
 *
 * Each rule has a bad fixture whose violations must surface with the
 * expected rule id at the expected line, and the good fixtures (clean
 * near-misses, properly suppressed violations) must stay silent. The
 * fixtures live in tests/lint_fixtures/ and are excluded from the
 * default tree walk — a deliberately planted violation must never be
 * able to fail the CI lint job.
 */
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lint.h"

namespace dilu::lint {
namespace {

std::string
ReadFixture(const std::string& name)
{
  const std::string path = std::string(DILU_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/**
 * Lint fixture `name` under a synthetic repo path (rule scoping keys on
 * the path, so e.g. the event-schedule fixture is linted "as if" it
 * lived in src/cluster/). Registry is harvested from the fixture itself
 * plus `extra_registry_from`, mirroring the two-pass tree walk.
 */
std::vector<Finding>
Lint(const std::string& name, const std::string& as_path,
     const std::vector<std::string>& extra_registry_from = {})
{
  Linter linter;
  const std::string content = ReadFixture(name);
  for (const std::string& extra : extra_registry_from) {
    linter.HarvestUnorderedMembers(extra, ReadFixture(extra));
  }
  linter.HarvestUnorderedMembers(as_path, content);
  std::vector<Finding> out;
  linter.LintFile(as_path, content, &out);
  return out;
}

/** (rule, line) pairs for compact assertions. */
std::set<std::pair<std::string, int>>
RuleLines(const std::vector<Finding>& findings)
{
  std::set<std::pair<std::string, int>> out;
  for (const Finding& f : findings) out.insert({f.rule, f.line});
  return out;
}

using P = std::pair<std::string, int>;

TEST(LintRules, WallClockFlagsEveryChronoClock)
{
  const auto got = RuleLines(Lint("bad_wall_clock.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"wall-clock", 6},
                              {"wall-clock", 7},
                              {"wall-clock", 8}}));
}

TEST(LintRules, RawRandFlagsSrandRandAndRandomDevice)
{
  const auto got = RuleLines(Lint("bad_raw_rand.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"raw-rand", 7},
                              {"raw-rand", 8},
                              {"raw-rand", 9}}));
}

TEST(LintRules, WallClockCatchesFabricTimestampIdioms)
{
  // Planted fabric-shaped violations: transfers stamped with host
  // time must be caught wherever they hide in the fabric layer.
  const auto got =
      RuleLines(Lint("bad_fabric_clock.cc", "src/fabric/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"wall-clock", 9},
                              {"wall-clock", 11},
                              {"wall-clock", 13}}));
}

TEST(LintRules, RawRandCatchesFabricJitterIdioms)
{
  const auto got =
      RuleLines(Lint("bad_fabric_rand.cc", "src/fabric/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"raw-rand", 9},
                              {"raw-rand", 10},
                              {"raw-rand", 11}}));
}

TEST(LintRules, WallClockCatchesSweepReportStampIdioms)
{
  // Planted sweep-shaped violations: a report stamped with host time
  // would break the byte-identical-rerun contract (docs/SWEEP.md).
  const auto got =
      RuleLines(Lint("bad_sweep_clock.cc", "src/sweep/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"wall-clock", 9},
                              {"wall-clock", 10},
                              {"wall-clock", 12}}));
}

TEST(LintRules, RawRandCatchesSweepSeedDrawIdioms)
{
  const auto got =
      RuleLines(Lint("bad_sweep_rand.cc", "src/sweep/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"raw-rand", 10},
                              {"raw-rand", 12},
                              {"raw-rand", 13}}));
}

TEST(LintRules, GetenvFlaggedOutsideGoldenRegenKnob)
{
  const auto got = RuleLines(Lint("bad_getenv.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"getenv", 6}}));
}

TEST(LintRules, GetenvExemptInGoldenTest)
{
  // The same content under the sanctioned path produces nothing.
  const auto got =
      RuleLines(Lint("bad_getenv.cc", "tests/trace_golden_test.cc"));
  EXPECT_TRUE(got.empty());
}

TEST(LintRules, RngDefaultSeedFlagsUnseededConstructions)
{
  const auto got = RuleLines(Lint("bad_rng_seed.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"rng-default-seed", 8},
                              {"rng-default-seed", 9},
                              {"rng-default-seed", 10},
                              {"rng-default-seed", 11},
                              {"rng-default-seed", 12}}));
}

TEST(LintRules, UnorderedIterFlagsRangeForBeginAndNested)
{
  const auto got =
      RuleLines(Lint("bad_unordered_iter.h", "src/x.h"));
  EXPECT_EQ(got, (std::set<P>{{"unordered-iter", 14},
                              {"unordered-iter", 17},
                              {"unordered-iter", 22}}));
}

TEST(LintRules, RegistryCrossesFiles)
{
  // A member declared in one file is flagged when iterated from
  // another (the registry is tree-wide, like the real walk).
  Linter linter;
  linter.HarvestUnorderedMembers("src/a.h",
                                 "#pragma once\n"
                                 "#include <unordered_map>\n"
                                 "struct S { std::unordered_map<int, int> "
                                 "index_; };\n");
  std::vector<Finding> out;
  linter.LintFile("src/b.cc",
                  "void f(S& s)\n"
                  "{\n"
                  "  for (auto& [k, v] : s.index_) (void)k;\n"
                  "}\n",
                  &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "unordered-iter");
  EXPECT_EQ(out[0].line, 3);
}

TEST(LintRules, CheckSideEffectFlagsMutationAndStreams)
{
  const auto got = RuleLines(Lint("bad_check.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"check-side-effect", 7},
                              {"check-side-effect", 8},
                              {"check-side-effect", 9}}));
}

TEST(LintRules, LogSideEffectFlagsMutationInStreams)
{
  const auto got = RuleLines(Lint("bad_log.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"log-side-effect", 7},
                              {"log-side-effect", 8}}));
}

TEST(LintRules, IncludeGuardRequiredInHeaders)
{
  const auto got = RuleLines(Lint("bad_guard.h", "src/x.h"));
  EXPECT_EQ(got, (std::set<P>{{"include-guard", 1}}));
  // The same content as a .cc is not a header:
  EXPECT_TRUE(RuleLines(Lint("bad_guard.h", "src/x.cc")).empty());
}

TEST(LintRules, EventScheduleScopedToSrcOutsideSimAndRuntime)
{
  const auto in_cluster =
      RuleLines(Lint("bad_schedule.cc", "src/cluster/x.cc"));
  EXPECT_EQ(in_cluster, (std::set<P>{{"event-schedule", 8},
                                     {"event-schedule", 9}}));
  // The sim core, the runtime layer, and tests are all exempt —
  // Simulation::Post itself is the sanctioned scheduling site:
  EXPECT_TRUE(Lint("bad_schedule.cc", "src/sim/x.cc").empty());
  EXPECT_TRUE(Lint("bad_schedule.cc", "src/sim/simulation.cc").empty());
  EXPECT_TRUE(Lint("bad_schedule.cc", "src/runtime/x.cc").empty());
  EXPECT_TRUE(Lint("bad_schedule.cc", "tests/x.cc").empty());
}

TEST(LintRules, EventScheduleFlagsRawSourceCalls)
{
  const auto in_cluster =
      RuleLines(Lint("bad_source.cc", "src/cluster/x.cc"));
  EXPECT_EQ(in_cluster, (std::set<P>{{"event-schedule", 8},
                                     {"event-schedule", 9}}));
  // The Simulation wrappers live in sim/; the runtime layer and tests
  // may drive a queue directly:
  EXPECT_TRUE(Lint("bad_source.cc", "src/sim/x.cc").empty());
  EXPECT_TRUE(Lint("bad_source.cc", "src/runtime/x.cc").empty());
  EXPECT_TRUE(Lint("bad_source.cc", "tests/x.cc").empty());
}

TEST(LintRules, SeedZeroSentinelScopedByExceptionList)
{
  const auto got = RuleLines(Lint("bad_seed_zero.cc", "src/x.cc"));
  EXPECT_EQ(got, (std::set<P>{{"seed-zero", 6}, {"seed-zero", 7}}));
  // The sanctioned legacy-seed sites may compare seed with 0:
  EXPECT_TRUE(
      Lint("bad_seed_zero.cc", "src/experiment/experiment.cc").empty());
  EXPECT_TRUE(Lint("bad_seed_zero.cc", "tools/dilu_run.cc").empty());
  // Any other path is outside the list, a bench's included:
  EXPECT_EQ(RuleLines(Lint("bad_seed_zero.cc", "bench/bench_harness.cc")),
            (std::set<P>{{"seed-zero", 6}, {"seed-zero", 7}}));
}

TEST(LintRules, StdDistributionFlaggedOutsideRandomCc)
{
  // Line 4 is the using-declaration; the near misses stay silent.
  const auto got =
      RuleLines(Lint("bad_std_distribution.cc", "tests/x_test.cc"));
  EXPECT_EQ(got, (std::set<P>{{"std-distribution", 4},
                              {"std-distribution", 8},
                              {"std-distribution", 9},
                              {"std-distribution", 11}}));
  // common/random.cc is the one sanctioned home of the distributions.
  EXPECT_TRUE(Lint("bad_std_distribution.cc", "src/common/random.cc")
                  .empty());
}

TEST(LintSuppressions, AllPlacementFormsSilenceFindings)
{
  EXPECT_TRUE(Lint("good_suppressed.cc", "src/x.cc").empty());
}

TEST(LintSuppressions, MalformedAllowsAreThemselvesFindings)
{
  const auto got = RuleLines(Lint("bad_allow.cc", "src/x.cc"));
  // Reasonless and unknown-rule allows do NOT suppress, so both the
  // bare-allow findings and the underlying violations surface.
  EXPECT_EQ(got, (std::set<P>{{"bare-allow", 6},
                              {"wall-clock", 7},
                              {"bare-allow", 8},
                              {"wall-clock", 9}}));
}

TEST(LintCleanliness, NearMissesStaySilent)
{
  EXPECT_TRUE(Lint("good_clean.cc", "src/x.cc").empty());
}

TEST(LintOutput, TextFormatIsFileLineRuleMessage)
{
  const Finding f{"src/a.cc", 12, "wall-clock", "msg"};
  EXPECT_EQ(ToText(f), "src/a.cc:12: wall-clock: msg");
}

TEST(LintOutput, JsonShapeAndEscaping)
{
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "raw-rand", "uses \"rand\""},
  };
  const std::string json = ToJson(findings);
  EXPECT_NE(json.find("\"schema\": \"dilu-lint/1\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"raw-rand\""), std::string::npos);
  EXPECT_NE(json.find("uses \\\"rand\\\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);

  const std::string empty = ToJson({});
  EXPECT_NE(empty.find("\"findings\": []"), std::string::npos);
  EXPECT_NE(empty.find("\"count\": 0"), std::string::npos);
}

TEST(LintCatalogue, RuleIdsAreUniqueAndDocumented)
{
  std::set<std::string> ids;
  for (const RuleInfo& r : Rules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule " << r.id;
    EXPECT_NE(std::string(r.description), "");
    EXPECT_NE(std::string(r.scope), "");
  }
  // The catalogue is part of the documented contract; additions must
  // update docs/STATIC_ANALYSIS.md and this count.
  EXPECT_EQ(ids.size(), 12u);
}

TEST(LintTreeWalk, WalksDirectoriesAndSortsFindings)
{
  // Walk the fixture dir as its own repo root: relative paths no longer
  // contain "lint_fixtures/", so the planted violations all surface.
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintTree(DILU_LINT_FIXTURE_DIR, {"."}, &findings, &error))
      << error;
  EXPECT_GT(findings.size(), 10u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    const bool sorted =
        findings[i - 1].file < findings[i].file
        || (findings[i - 1].file == findings[i].file
            && findings[i - 1].line <= findings[i].line);
    EXPECT_TRUE(sorted) << "unsorted at " << findings[i].file;
  }
  // Unreadable roots are an error, not silence:
  std::vector<Finding> none;
  EXPECT_FALSE(LintTree(DILU_LINT_FIXTURE_DIR, {"no_such_dir"}, &none,
                        &error));
  EXPECT_NE(error.find("no_such_dir"), std::string::npos);
}

TEST(LintTreeWalk, FixtureDirIsExcludedFromRealWalks)
{
  // Walked from the repo root (the real CI invocation shape), the
  // fixture files are skipped — a planted violation cannot fail CI.
  // DILU_LINT_FIXTURE_DIR is <repo>/tests/lint_fixtures.
  const std::string fixture_dir = DILU_LINT_FIXTURE_DIR;
  const std::string repo =
      fixture_dir.substr(0, fixture_dir.rfind("/tests/"));
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      LintTree(repo, {"tests/lint_fixtures"}, &findings, &error))
      << error;
  EXPECT_TRUE(findings.empty());
}

}  // namespace
}  // namespace dilu::lint
