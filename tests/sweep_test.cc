/**
 * @file
 * Sweep engine tests (docs/SWEEP.md): the SweepSpec text format and
 * builder (round-trip, line-numbered rejection), ApplyParam's
 * parameter paths into an ExperimentSpec, matrix expansion (row-major
 * cell order, paired seeds, run.shards interception, the run cap),
 * aggregation + threshold evaluation over synthetic results, and the
 * end-to-end contract on experiments/sweeps/mini.sweep: byte-identical
 * reports across worker-thread counts and reruns, compared against the
 * checked-in golden.
 *
 * The golden comparison regenerates with:
 *
 *   DILU_REGEN_GOLDEN=1 ./tests/sweep_test
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "common/spec_text.h"
#include "common/types.h"
#include "experiment/experiment.h"
#include "experiment/experiment_spec.h"
#include "experiment/gallery.h"
#include "experiment/spec_params.h"
#include "sweep/sweep_runner.h"

namespace dilu {
namespace {

#ifndef DILU_GOLDEN_DIR
#error "tests/CMakeLists.txt must define DILU_GOLDEN_DIR"
#endif
#ifndef DILU_EXPERIMENTS_DIR
#error "tests/CMakeLists.txt must define DILU_EXPERIMENTS_DIR"
#endif

using experiment::ApplyParam;
using experiment::ExperimentResult;
using experiment::ExperimentSpec;
using sweep::SweepMatrix;
using sweep::SweepReport;
using sweep::SweepSpec;
using sweep::Threshold;
using sweep::ThresholdOp;

std::string
ReadFileOrEmpty(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/** A tiny but fully valid base spec for expansion tests. */
ExperimentSpec
TinyBase()
{
  ExperimentSpec spec("tiny");
  spec.cluster().nodes = 2;
  auto& d = spec.AddInference("bert-base");
  d.provision = 1;
  spec.AddPoisson(0, 10.0, Sec(5));
  spec.RunFor(Sec(6));
  return spec;
}

// --- SweepSpec: builder, text format, rejection ----------------------

TEST(SweepSpec, BuilderRoundTripsByteIdentically)
{
  SweepSpec spec("ablation");
  spec.Base("chaos_burst")
      .Seeds(5, 7)
      .Axis("cluster.recovery", {"joint", "greedy"})
      .Axis("cluster.nodes", {"3", "4"})
      .Require("availability", ThresholdOp::kGe, 97.0)
      .Require("p99_ms", ThresholdOp::kLe, 1.2, /*relative=*/true);
  const std::string text = spec.ToText();
  EXPECT_EQ(text,
            "sweep ablation\n"
            "base chaos_burst\n"
            "seeds 5 base=7\n"
            "axis cluster.recovery joint greedy\n"
            "axis cluster.nodes 3 4\n"
            "require availability >= 97\n"
            "require p99_ms <= 1.2x baseline\n");

  SweepSpec parsed;
  std::string error;
  ASSERT_TRUE(SweepSpec::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToText(), text);
  EXPECT_EQ(parsed.Cells(), 4u);
  EXPECT_EQ(parsed.Runs(), 20u);
  EXPECT_EQ(parsed.seed_base(), 7u);
  ASSERT_EQ(parsed.thresholds().size(), 2u);
  EXPECT_TRUE(parsed.thresholds()[1].relative);
}

TEST(SweepSpec, CommentsAndBlankLinesAreSkipped)
{
  const std::string text =
      "# a sweep\n"
      "\n"
      "sweep s   # trailing comment\n"
      "base quickstart\n"
      "seeds 2\n"
      "axis workload[0].rps 10 20  # two loads\n";
  SweepSpec parsed;
  std::string error;
  ASSERT_TRUE(SweepSpec::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.name(), "s");
  ASSERT_EQ(parsed.axes().size(), 1u);
  EXPECT_EQ(parsed.axes()[0].values.size(), 2u);
}

TEST(SweepSpec, ParseRejectsMalformedSpecsWithLineNumbers)
{
  const struct {
    const char* text;
    const char* needle;
  } kCases[] = {
      {"base quickstart\n", "sweep <name>"},
      {"sweep s\n", "base <experiment>"},
      {"sweep s\nsweep t\nbase q\n", "duplicate sweep"},
      {"sweep s\nbase q\nbase r\n", "duplicate base"},
      {"sweep s\nbase q\nseeds 2\nseeds 3\n", "duplicate seeds"},
      {"sweep s\nbase q\nseeds 0\n", "count >= 1"},
      {"sweep s\nbase q\nseeds 3 base=0\n", "base=<seed >= 1>"},
      {"sweep s\nbase q\naxis\n", "parameter path"},
      {"sweep s\nbase q\naxis cluster.nodes\n", "at least one value"},
      {"sweep s\nbase q\naxis cluster.nodes 2 2\n", "repeats value"},
      {"sweep s\nbase q\naxis a 1\naxis a 2\n", "duplicate axis"},
      {"sweep s\nbase q\nrequire availability > 5\n", "<= or >="},
      {"sweep s\nbase q\nrequire warp <= 5\n", "unknown metric"},
      {"sweep s\nbase q\nrequire p99_ms <= 1.2x\n", "x baseline"},
      {"sweep s\nbase q\nrequire shed <= -1\n", "bound >= 0"},
      {"sweep s\nbase q\nrequire shed <= nan\n", "bound >= 0"},
      {"sweep s\nbase q\nseeds 2 base=18446744073709551615\n",
       "overflows"},
      {"sweep s\nbase q\nrequire shed <= 5 junk\n", "trailing"},
      {"sweep s extra\n", "trailing"},
      {"sweep s\nbase q\nexplode\n", "unknown directive"},
      {"sweep s\nbase q\nvariant\n", "variant <name>"},
      {"sweep s\nbase q\nvariant a\n", "needs a <path>=<value>"},
      {"sweep s\nbase q\nvariant a cluster.nodes\n", "wants <path>=<value>"},
      {"sweep s\nbase q\nvariant a =2\n", "wants <path>=<value>"},
      {"sweep s\nbase q\nvariant a cluster.nodes=\n",
       "wants <path>=<value>"},
      {"sweep s\nbase q\nvariant a cluster.nodes=2\n"
       "variant a cluster.nodes=3\n",
       "duplicate variant"},
      {"sweep s\nbase q\nvariant a cluster.nodes=2 cluster.nodes=3\n",
       "twice"},
      {"sweep s\nbase q\nvariant a cluster.nodes=2\n"
       "axis cluster.nodes 1 3\n",
       "which an axis sweeps"},
      {"sweep s\nbase q\nrequire avg_gpus[fn=0] <= 1\n",
       "no per-function value"},
      {"sweep s\nbase q\nrequire p95_ms[fn=x] <= 1\n", "[fn=<index"},
      {"sweep s\nbase q\nrequire p95_ms[0] <= 1\n", "[fn=<index"},
      {"sweep s\nbase q\nrequire p95_ms[fn=0 <= 1\n", "[fn=<index"},
      {"sweep s\nbase q\nrequire p95_ms[fn=1]] <= 1\n", "[fn=<index"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.text);
    SweepSpec scratch;
    std::string error;
    EXPECT_FALSE(SweepSpec::Parse(c.text, &scratch, &error));
    EXPECT_NE(error.find("line "), std::string::npos) << error;
    EXPECT_NE(error.find(c.needle), std::string::npos) << error;
  }
}

TEST(SweepSpec, RelativeClauseOnOneCellIsRejected)
{
  // Relative clauses skip the baseline cell, so on one cell they would
  // check nothing and always pass.
  std::string error;
  EXPECT_FALSE(SweepSpec::Parse(
      "sweep s\nbase quickstart\nrequire p95_ms >= 100x baseline\n",
      nullptr, &error));
  EXPECT_EQ(error.rfind("line 3: a relative clause needs a second cell", 0),
            0u)
      << error;
  // A one-value axis is still one cell; the clause may come first.
  EXPECT_FALSE(SweepSpec::Parse(
      "sweep s\nbase q\nrequire p95_ms <= 2x baseline\n"
      "axis cluster.nodes 2\n",
      nullptr, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  // A second cell, from an axis or a variant, makes it meaningful.
  EXPECT_TRUE(SweepSpec::Parse(
      "sweep s\nbase q\nrequire p95_ms <= 2x baseline\n"
      "axis cluster.nodes 2 3\n",
      nullptr, &error))
      << error;
  EXPECT_TRUE(SweepSpec::Parse(
      "sweep s\nbase q\nvariant a cluster.nodes=2\n"
      "variant b cluster.nodes=3\nrequire p95_ms <= 2x baseline\n",
      nullptr, &error))
      << error;
  // Absolute clauses on one cell are fine.
  EXPECT_TRUE(SweepSpec::Parse("sweep s\nbase q\nrequire p95_ms <= 200\n",
                               nullptr, &error))
      << error;
}

TEST(SweepSpec, VariantsAndSelectorsRoundTrip)
{
  SweepSpec spec("v");
  spec.Base("experiments/paper/fig07.exp")
      .Variant("exclusive",
               {{"cluster.preset", "exclusive"}, {"deploy[1].on", "4,5"}})
      .Variant("dilu", {{"cluster.preset", "dilu"}})
      .Axis("run.for", {"10s", "20s"})
      .Require("p95_ms", ThresholdOp::kLe, 1.25, true, 1)
      .Require("iterations", ThresholdOp::kGe, 3);
  const std::string text = spec.ToText();
  EXPECT_EQ(text,
            "sweep v\n"
            "base experiments/paper/fig07.exp\n"
            "seeds 1\n"
            "variant exclusive cluster.preset=exclusive deploy[1].on=4,5\n"
            "variant dilu cluster.preset=dilu\n"
            "axis run.for 10s 20s\n"
            "require p95_ms[fn=1] <= 1.25x baseline\n"
            "require iterations >= 3\n");
  SweepSpec parsed;
  std::string error;
  ASSERT_TRUE(SweepSpec::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToText(), text);
  EXPECT_EQ(parsed.thresholds()[0].fn, 1);
  EXPECT_EQ(parsed.thresholds()[1].fn, -1);
  EXPECT_EQ(parsed.Cells(), 4u);
  const std::vector<sweep::SweepAxis> grid = parsed.GridAxes();
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].path, "variant");
  EXPECT_EQ(grid[0].values, (std::vector<std::string>{"exclusive", "dilu"}));
  EXPECT_EQ(grid[1].path, "run.for");
}

// --- ApplyParam: parameter paths into an ExperimentSpec --------------

TEST(SpecParams, ClusterPathsApplyWithLoaderValidation)
{
  ExperimentSpec spec = TinyBase();
  std::string error;
  ASSERT_TRUE(ApplyParam(&spec, "cluster.nodes", "5", &error)) << error;
  EXPECT_EQ(spec.cluster().nodes, 5);
  ASSERT_TRUE(ApplyParam(&spec, "cluster.recovery", "greedy", &error));
  EXPECT_EQ(*spec.cluster().recovery, "greedy");
  ASSERT_TRUE(ApplyParam(&spec, "cluster.scheduler", "static", &error));
  ASSERT_TRUE(ApplyParam(&spec, "cluster.warm_starts", "off", &error));
  EXPECT_FALSE(*spec.cluster().warm_starts);

  EXPECT_FALSE(ApplyParam(&spec, "cluster.nodes", "0", &error));
  EXPECT_FALSE(ApplyParam(&spec, "cluster.recovery", "magic", &error));
  EXPECT_FALSE(ApplyParam(&spec, "cluster.warp", "9", &error));
  EXPECT_NE(error.find("cluster.warp"), std::string::npos) << error;
}

TEST(SpecParams, SeedPathsAreReserved)
{
  ExperimentSpec spec = TinyBase();
  std::string error;
  EXPECT_FALSE(ApplyParam(&spec, "cluster.seed", "9", &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_FALSE(ApplyParam(&spec, "workload[0].seed", "9", &error));
}

TEST(SpecParams, DeployPathsRespectTaskTypeApplicability)
{
  ExperimentSpec spec = TinyBase();
  spec.AddTraining("vgg19", 2, 100);
  std::string error;
  ASSERT_TRUE(ApplyParam(&spec, "deploy[0].provision", "3", &error));
  EXPECT_EQ(spec.deploys()[0].provision, 3);
  ASSERT_TRUE(ApplyParam(&spec, "deploy[0].scaler", "eager", &error));
  ASSERT_TRUE(ApplyParam(&spec, "deploy[0].class", "critical", &error));
  ASSERT_TRUE(ApplyParam(&spec, "deploy[0].backoff", "2s", &error));
  EXPECT_EQ(spec.deploys()[0].fn.retry_backoff, Sec(2));
  ASSERT_TRUE(ApplyParam(&spec, "deploy[1].workers", "4", &error));
  EXPECT_EQ(spec.deploys()[1].fn.workers, 4);
  ASSERT_TRUE(
      ApplyParam(&spec, "deploy[1].checkpoint_every", "30s", &error));

  // Inference keys on a training deploy and vice versa.
  EXPECT_FALSE(ApplyParam(&spec, "deploy[1].provision", "3", &error));
  EXPECT_NE(error.find("inference deploys only"), std::string::npos);
  EXPECT_FALSE(ApplyParam(&spec, "deploy[0].workers", "4", &error));
  EXPECT_NE(error.find("training deploys only"), std::string::npos);
  // Identity keys are not sweepable; indexes are validated.
  EXPECT_FALSE(ApplyParam(&spec, "deploy[0].model", "vgg19", &error));
  EXPECT_FALSE(ApplyParam(&spec, "deploy[2].provision", "1", &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(ApplyParam(&spec, "deploy[x].provision", "1", &error));
}

TEST(SpecParams, WorkloadPathsRespectArrivalKindApplicability)
{
  ExperimentSpec spec = TinyBase();
  std::string error;
  ASSERT_TRUE(ApplyParam(&spec, "workload[0].rps", "25.5", &error));
  EXPECT_DOUBLE_EQ(spec.workloads()[0].rps, 25.5);
  ASSERT_TRUE(ApplyParam(&spec, "workload[0].duration", "30s", &error));
  EXPECT_EQ(spec.workloads()[0].duration, Sec(30));
  ASSERT_TRUE(ApplyParam(&spec, "workload[0].warmup", "5s", &error));

  // `cv` belongs to gamma arrivals, not poisson.
  EXPECT_FALSE(ApplyParam(&spec, "workload[0].cv", "2", &error));
  EXPECT_NE(error.find("does not apply"), std::string::npos) << error;
  EXPECT_FALSE(ApplyParam(&spec, "workload[0].rps", "-1", &error));
  EXPECT_FALSE(ApplyParam(&spec, "workload[1].rps", "5", &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(SpecParams, ChaosIntensityScalesLoadPressureOnly)
{
  // One event of every verb, in FaultKind order.
  ExperimentSpec spec = TinyBase();
  spec.chaos()
      .FailGpu(Sec(1), 0)
      .RecoverGpu(Sec(2), 0)
      .FailNode(Sec(1), 1)
      .RecoverNode(Sec(2), 1)
      .DrainNode(Sec(1), 0)
      .UndrainNode(Sec(2), 0)
      .DegradeGpu(Sec(1), 1, 0.6)
      .StraggleGpu(Sec(1), 2, 2.5)
      .CheckpointEvery(Sec(1), 0, Sec(5))
      .InflateColdStarts(Sec(1), 2.5, Sec(2))
      .Surge(Sec(1), 0, 40.0, Sec(2))
      .Overload(Sec(1), 0, 4.0, Sec(2))
      .ThrottleAdmit(Sec(1), 0, 50.0, Sec(2))
      .FailLink(Sec(1), 0, Sec(2))
      .StorageBrownout(Sec(1), 3.0, Sec(2));
  const std::vector<chaos::ScenarioEvent> before = spec.chaos().events();
  std::string error;
  ASSERT_TRUE(ApplyParam(&spec, "chaos.intensity", "2", &error)) << error;
  // Surge's extra rps scales linearly; the factors of inflation,
  // overload and brownout scale in excess over one (1 + (f - 1) * 2);
  // every other verb keeps its magnitude.
  const std::map<chaos::FaultKind, double> scaled = {
      {chaos::FaultKind::kColdStartInflation, 4.0},
      {chaos::FaultKind::kTrafficSurge, 80.0},
      {chaos::FaultKind::kOverload, 7.0},
      {chaos::FaultKind::kStorageBrownout, 5.0},
  };
  const auto& events = spec.chaos().events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(chaos::FaultKind::kStorageBrownout) + 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(static_cast<std::size_t>(events[i].kind), i);
    const auto it = scaled.find(events[i].kind);
    EXPECT_DOUBLE_EQ(events[i].magnitude,
                     it == scaled.end() ? before[i].magnitude : it->second)
        << chaos::ToString(events[i].kind);
  }

  // Intensity 1 is the identity.
  ExperimentSpec one = TinyBase();
  one.chaos().Overload(Sec(1), 0, 4.0, Sec(2));
  ASSERT_TRUE(ApplyParam(&one, "chaos.intensity", "1", &error));
  EXPECT_DOUBLE_EQ(one.chaos().events()[0].magnitude, 4.0);
  EXPECT_FALSE(ApplyParam(&one, "chaos.intensity", "0", &error));
}

TEST(SpecParams, RunForAndUnknownPaths)
{
  ExperimentSpec spec = TinyBase();
  std::string error;
  ASSERT_TRUE(ApplyParam(&spec, "run.for", "90s", &error));
  EXPECT_EQ(spec.run_for(), Sec(90));
  EXPECT_FALSE(ApplyParam(&spec, "run.for", "0s", &error));
  EXPECT_FALSE(ApplyParam(&spec, "nonsense.path", "1", &error));
  EXPECT_NE(error.find("unknown parameter path"), std::string::npos);
}

TEST(SpecParams, RejectionsNameThePathAndKeepTheSpec)
{
  ExperimentSpec spec = TinyBase();
  const std::string before = spec.ToText();
  std::string error;
  // Spliced into the text, these would add a second key or comment out
  // the rest of the line.
  for (const char* value : {"20 start=5s", "20#", "20\tstart=5s", ""}) {
    SCOPED_TRACE(value);
    EXPECT_FALSE(ApplyParam(&spec, "workload[0].rps", value, &error));
    EXPECT_EQ(error.find("workload[0].rps: "), 0u) << error;
    EXPECT_NE(error.find("one token"), std::string::npos) << error;
  }
  EXPECT_FALSE(ApplyParam(&spec, "cluster.nodes=2 rc", "off", &error));
  // A loader rejection carries the loader's reason, minus the line
  // number of the edited text.
  EXPECT_FALSE(ApplyParam(&spec, "cluster.nodes", "0", &error));
  EXPECT_EQ(error, "cluster.nodes: nodes must be a positive int");
  EXPECT_FALSE(ApplyParam(&spec, "workload[0].rps", "nan", &error));
  EXPECT_EQ(error, "workload[0].rps: rps must be > 0");
  // A default value still puts the key on the wrong task type.
  EXPECT_FALSE(ApplyParam(&spec, "deploy[0].workers", "1", &error));
  EXPECT_EQ(error,
            "deploy[0].workers: workers/iterations/checkpoint keys apply "
            "to training deploys only (add the 'training' word)");
  // fn= and the arrival kind are positional, not sweepable keys.
  EXPECT_FALSE(ApplyParam(&spec, "workload[0].fn", "0", &error));
  EXPECT_NE(error.find("unknown workload key"), std::string::npos);
  EXPECT_EQ(spec.ToText(), before);
}

using Tokens = std::vector<std::string>;

std::vector<Tokens>
SplitTokens(const std::string& text)
{
  std::vector<Tokens> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream toks(line);
    Tokens t;
    for (std::string tok; toks >> tok;) t.push_back(tok);
    lines.push_back(t);
  }
  return lines;
}

std::string
JoinTokens(const std::vector<Tokens>& lines)
{
  std::string text;
  for (const Tokens& t : lines) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      text += (i == 0 ? "" : " ") + t[i];
    }
    text += "\n";
  }
  return text;
}

/**
 * Values to try in place of `value`, none a grammar default (a default
 * would drop the token from the canonical text).
 */
std::vector<std::string>
OtherValues(const std::string& value)
{
  TimeUs t = 0;
  std::int32_t i = 0;
  double x = 0.0;
  if (spec_text::ParseTime(value, &t)) {
    return {spec_text::FormatTime(t + Ms(1))};
  }
  if (spec_text::ParseInt(value, &i)) return {std::to_string(i + 1)};
  if (spec_text::ParseDouble(value, &x)) {
    return {spec_text::FormatDouble(x * 0.9)};
  }
  return {"off",       "on",        "greedy",     "joint",  "static",
          "exclusive", "tgs",       "fastgs",     "limit",  "request",
          "full",      "eager",     "keep-alive", "dilu-lazy",
          "best_effort", "critical", "dilu"};
}

// The loader is the only validator: for every sweepable token of every
// gallery spec, re-applying its own value is the identity and applying
// another accepted value changes that token and nothing else.
TEST(SpecParams, GalleryTokensEditInPlace)
{
  int edits = 0;
  for (const experiment::GalleryEntry& entry :
       experiment::ListGallery(DILU_EXPERIMENTS_DIR, ".exp")) {
    SCOPED_TRACE(entry.name);
    ExperimentSpec base;
    std::string error;
    ASSERT_TRUE(ExperimentSpec::Parse(ReadFileOrEmpty(entry.path), &base,
                                      &error))
        << error;
    const std::string text = base.ToText();
    const std::vector<Tokens> lines = SplitTokens(text);
    ASSERT_EQ(JoinTokens(lines), text);
    std::map<std::string, int> seen;
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::string& head = lines[l][0];
      if (head != "cluster" && head != "deploy" && head != "workload"
          && head != "run") {
        continue;
      }
      const std::string prefix =
          head == "cluster" || head == "run"
              ? head + "."
              : head + "[" + std::to_string(seen[head]++) + "].";
      for (std::size_t t = head == "workload" ? 3 : 1;
           t < lines[l].size(); ++t) {
        std::size_t at = t;
        std::string key;
        std::string value;
        const bool operand = lines[l][t] == "for";
        if (operand) {
          key = head == "run" ? "for" : "duration";
          at = ++t;
          value = lines[l][at];
        } else {
          const std::size_t eq = lines[l][t].find('=');
          if (eq == std::string::npos) continue;  // the `training` word
          key = lines[l][t].substr(0, eq);
          value = lines[l][t].substr(eq + 1);
        }
        if (key == "seed" || key == "model" || key == "name") continue;
        const std::string path = prefix + key;
        SCOPED_TRACE(path + " " + value);
        ExperimentSpec same = base;
        ASSERT_TRUE(ApplyParam(&same, path, value, &error)) << error;
        EXPECT_EQ(same.ToText(), text);

        bool changed = false;
        for (const std::string& other : OtherValues(value)) {
          ExperimentSpec edited = base;
          if (other == value || !ApplyParam(&edited, path, other, &error)) {
            continue;
          }
          std::vector<Tokens> expected = lines;
          expected[l][at] = operand ? other : key + "=" + other;
          EXPECT_EQ(edited.ToText(), JoinTokens(expected));
          changed = true;
          break;
        }
        EXPECT_TRUE(changed) << "no other value was accepted";
        ++edits;
      }
    }
  }
  EXPECT_GE(edits, 100) << "experiments/ gallery went missing?";
}

// --- expansion -------------------------------------------------------

TEST(SweepExpansion, RowMajorOrderWithSeedsInnermost)
{
  SweepSpec sweep("grid");
  sweep.Base("tiny")
      .Seeds(2, 10)
      .Axis("cluster.recovery", {"joint", "greedy"})
      .Axis("workload[0].rps", {"5", "10", "15"});
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(ExpandSweep(sweep, TinyBase(), &matrix, &error)) << error;
  ASSERT_EQ(matrix.runs.size(), 12u);
  EXPECT_EQ(matrix.cells, 6u);

  // First axis outermost, seed repetitions innermost.
  EXPECT_EQ(matrix.runs[0].values,
            (std::vector<std::string>{"joint", "5"}));
  EXPECT_EQ(matrix.runs[0].seed, 10u);
  EXPECT_EQ(matrix.runs[1].values,
            (std::vector<std::string>{"joint", "5"}));
  EXPECT_EQ(matrix.runs[1].seed, 11u);
  EXPECT_EQ(matrix.runs[2].values,
            (std::vector<std::string>{"joint", "10"}));
  EXPECT_EQ(matrix.runs[2].cell, 1u);
  EXPECT_EQ(matrix.runs[6].values,
            (std::vector<std::string>{"greedy", "5"}));
  EXPECT_EQ(matrix.runs[11].values,
            (std::vector<std::string>{"greedy", "15"}));
  // Repetition k of every cell carries the same seed (paired).
  EXPECT_EQ(matrix.runs[6].seed, 10u);
  EXPECT_EQ(matrix.runs[7].seed, 11u);
  // The axis values really landed in each cell's spec.
  EXPECT_EQ(*matrix.runs[0].spec.cluster().recovery, "joint");
  EXPECT_DOUBLE_EQ(matrix.runs[11].spec.workloads()[0].rps, 15.0);
}

TEST(SweepExpansion, ClearsExportAndInterceptsRunShards)
{
  ExperimentSpec base = TinyBase();
  base.ExportTo("/tmp/should_not_export");
  SweepSpec sweep("shards");
  sweep.Base("tiny").Axis("run.shards", {"1", "2"});
  SweepMatrix matrix;
  std::string error;
  ASSERT_TRUE(ExpandSweep(sweep, base, &matrix, &error)) << error;
  ASSERT_EQ(matrix.runs.size(), 2u);
  EXPECT_EQ(matrix.runs[0].shards, 1);
  EXPECT_EQ(matrix.runs[1].shards, 2);
  for (const auto& run : matrix.runs) {
    EXPECT_TRUE(run.spec.export_prefix().empty());
  }

  SweepSpec bad("shards");
  bad.Base("tiny").Axis("run.shards", {"0"});
  EXPECT_FALSE(ExpandSweep(bad, base, &matrix, &error));
  EXPECT_NE(error.find("run.shards"), std::string::npos) << error;
}

TEST(SweepExpansion, RejectsBadAxisValuesNamingTheAxis)
{
  SweepSpec sweep("bad");
  sweep.Base("tiny").Axis("cluster.recovery", {"joint", "magic"});
  SweepMatrix matrix;
  std::string error;
  EXPECT_FALSE(ExpandSweep(sweep, TinyBase(), &matrix, &error));
  EXPECT_NE(error.find("cluster.recovery"), std::string::npos) << error;
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SweepExpansion, AxisShrinkingTheFleetUnderAChaosTargetNamesTheValue)
{
  // overload_shed fails nodes 0 and 1: at cluster.nodes=1 node 1 lies
  // outside the fleet, so expansion fails on that value, naming it,
  // instead of the run dying mid-sweep.
  ExperimentSpec base;
  std::string error;
  ASSERT_TRUE(ExperimentSpec::Parse(
      ReadFileOrEmpty(std::string(DILU_EXPERIMENTS_DIR)
                      + "/overload_shed.exp"),
      &base, &error))
      << error;
  SweepSpec sweep("shrink");
  sweep.Base("overload_shed").Axis("cluster.nodes", {"2", "1"});
  SweepMatrix matrix;
  EXPECT_FALSE(ExpandSweep(sweep, base, &matrix, &error));
  EXPECT_EQ(error.find("axis 'cluster.nodes' value '1': "), 0u) << error;
  EXPECT_NE(error.find("fail_node targets node 1 outside the fleet"),
            std::string::npos)
      << error;
}

TEST(SweepExpansion, VariantsAreTheOutermostAxisAndSetEveryKnob)
{
  SweepSpec sweep("v");
  sweep.Base("tiny")
      .Variant("small", {{"cluster.nodes", "1"}})
      .Variant("big", {{"cluster.nodes", "3"}, {"deploy[0].provision", "2"}})
      .Axis("workload[0].rps", {"5", "20"});
  SweepMatrix m;
  std::string error;
  ASSERT_TRUE(ExpandSweep(sweep, TinyBase(), &m, &error)) << error;
  ASSERT_EQ(m.runs.size(), 4u);
  ASSERT_EQ(m.axes.size(), 2u);
  EXPECT_EQ(m.axes[0].path, "variant");
  const std::vector<std::vector<std::string>> points = {
      {"small", "5"}, {"small", "20"}, {"big", "5"}, {"big", "20"}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.runs[i].values, points[i]) << i;
  }
  EXPECT_EQ(*m.runs[0].spec.cluster().nodes, 1);
  EXPECT_EQ(m.runs[0].spec.deploys()[0].provision, 1);
  EXPECT_EQ(*m.runs[3].spec.cluster().nodes, 3);
  EXPECT_EQ(m.runs[3].spec.deploys()[0].provision, 2);
  EXPECT_DOUBLE_EQ(m.runs[3].spec.workloads()[0].rps, 20.0);

  // The report's point names the variant like an axis value.
  const std::vector<ExperimentResult> results(4);
  const SweepReport report = AggregateSweep(sweep, results);
  EXPECT_NE(report.ToJson().find(
                "\"point\": {\"variant\": \"big\", \"workload[0].rps\": "
                "\"20\"}"),
            std::string::npos);
}

TEST(SweepExpansion, VariantRejectionsNameTheVariantAndSetting)
{
  SweepSpec sweep("v");
  sweep.Base("tiny")
      .Variant("ok", {{"cluster.nodes", "2"}})
      .Variant("bad", {{"cluster.nodes", "2"}, {"deploy[0].provision", "-1"}});
  SweepMatrix m;
  std::string error;
  EXPECT_FALSE(ExpandSweep(sweep, TinyBase(), &m, &error));
  EXPECT_EQ(error.rfind("variant 'bad' deploy[0].provision=-1: "
                        "deploy[0].provision: provision must be >= 0",
                        0),
            0u)
      << error;
}

TEST(SweepExpansion, SelectorPastTheBaseDeploysIsAnError)
{
  SweepSpec sweep("sel");
  sweep.Base("tiny").Require("p95_ms", ThresholdOp::kLe, 9.0, false, 1);
  SweepMatrix m;
  std::string error;
  EXPECT_FALSE(ExpandSweep(sweep, TinyBase(), &m, &error));
  EXPECT_EQ(error, "require p95_ms[fn=1]: the base has 1 deploys");
}

TEST(SweepExpansion, ShardingAPinnedBaseIsAnError)
{
  ExperimentSpec base = TinyBase();
  base.deploys()[0].provision = 0;
  base.deploys()[0].on = {0};
  std::string error;
  SweepMatrix m;
  SweepSpec axis("pinned");
  axis.Base("tiny").Axis("run.shards", {"1", "2"});
  EXPECT_FALSE(ExpandSweep(axis, base, &m, &error));
  EXPECT_EQ(error,
            "cell 1: run.shards=2 cannot partition a base whose deploys pin "
            "GPUs (on=)");
  SweepSpec variant("pinned");
  variant.Base("tiny").Variant("two", {{"run.shards", "2"}});
  EXPECT_FALSE(ExpandSweep(variant, base, &m, &error));
  EXPECT_NE(error.find("cell 0: run.shards=2"), std::string::npos) << error;
  // One shard is the whole fleet, pins and all.
  SweepSpec one("pinned");
  one.Base("tiny").Axis("run.shards", {"1"});
  EXPECT_TRUE(ExpandSweep(one, base, &m, &error)) << error;
}

TEST(SweepExpansion, CapsTheMatrixSize)
{
  SweepSpec sweep("huge");
  sweep.Base("tiny").Seeds(20000);
  std::vector<std::string> values;
  for (int i = 1; i <= 51; ++i) values.push_back(std::to_string(i));
  sweep.Axis("workload[0].rps", values);  // 51 * 20000 > 1000000
  SweepMatrix matrix;
  std::string error;
  EXPECT_FALSE(ExpandSweep(sweep, TinyBase(), &matrix, &error));
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

// --- aggregation + thresholds over synthetic results -----------------

/** Synthetic per-run result with the fields the metrics read. */
ExperimentResult
FakeResult(double availability, double p99, std::int64_t shed)
{
  ExperimentResult r;
  r.overall_availability_percent = availability;
  r.total_shed = shed;
  experiment::FunctionResult f;
  f.type = TaskType::kInference;
  f.p99_ms = p99;
  r.functions.push_back(f);
  return r;
}

TEST(SweepAggregate, FoldsCellsAndEvaluatesThresholds)
{
  SweepSpec sweep("agg");
  sweep.Base("tiny")
      .Seeds(3)
      .Axis("cluster.recovery", {"joint", "greedy"})
      .Require("availability", ThresholdOp::kGe, 99.0)
      .Require("p99_ms", ThresholdOp::kLe, 1.5, /*relative=*/true);
  // Cell 0 (joint): availability {100, 99.5, 99.9}, p99 {100, 110, 120}.
  // Cell 1 (greedy): availability {99.4, 99.2, 99.6}, p99 {150, 160, 170}.
  const std::vector<ExperimentResult> results = {
      FakeResult(100.0, 100.0, 0), FakeResult(99.5, 110.0, 0),
      FakeResult(99.9, 120.0, 0),  FakeResult(99.4, 150.0, 2),
      FakeResult(99.2, 160.0, 4),  FakeResult(99.6, 170.0, 6),
  };
  const SweepReport report = AggregateSweep(sweep, results);
  ASSERT_EQ(report.cells.size(), 2u);

  const auto& names = sweep::SweepMetricNames();
  const std::size_t avail = 0;
  ASSERT_EQ(names[avail], "availability");
  std::size_t p99 = 0;
  while (names[p99] != "p99_ms") ++p99;
  std::size_t shed = 0;
  while (names[shed] != "shed") ++shed;

  EXPECT_NEAR(report.cells[0].metrics[avail].mean, 99.8, 1e-9);
  EXPECT_NEAR(report.cells[0].metrics[avail].min, 99.5, 1e-9);
  EXPECT_NEAR(report.cells[0].metrics[avail].max, 100.0, 1e-9);
  EXPECT_NEAR(report.cells[1].metrics[p99].mean, 160.0, 1e-9);
  EXPECT_NEAR(report.cells[1].metrics[shed].mean, 4.0, 1e-9);
  EXPECT_GT(report.cells[0].metrics[avail].ci95, 0.0);

  // availability >= 99 passes (worst cell mean 99.4); p99 <= 1.5x
  // baseline: 160 <= 1.5 * 110 = 165 passes.
  ASSERT_EQ(report.thresholds.size(), 2u);
  EXPECT_TRUE(report.thresholds[0].pass);
  EXPECT_EQ(report.thresholds[0].worst_cell, 1u);
  EXPECT_NEAR(report.thresholds[0].observed, 99.4, 1e-9);
  EXPECT_TRUE(report.thresholds[1].pass);
  EXPECT_NEAR(report.thresholds[1].bound, 165.0, 1e-9);
  EXPECT_TRUE(report.pass);

  // Tighten the relative bound: 160 <= 1.2 * 110 = 132 fails.
  SweepSpec failing("agg");
  failing.Base("tiny")
      .Seeds(3)
      .Axis("cluster.recovery", {"joint", "greedy"})
      .Require("p99_ms", ThresholdOp::kLe, 1.2, /*relative=*/true);
  const SweepReport failed = AggregateSweep(failing, results);
  ASSERT_EQ(failed.thresholds.size(), 1u);
  EXPECT_FALSE(failed.thresholds[0].pass);
  EXPECT_FALSE(failed.pass);
  EXPECT_NE(failed.ToJson().find("\"pass\": false"), std::string::npos);
}

TEST(SweepAggregate, SelectorsReadTheFunctionsOwnValue)
{
  // Function 0's p99 doubles between the cells; function 1's grows
  // by 10%. The fleet-wide p99 (the worst function) is function 0's.
  const auto result = [](double p99_a, double p99_b) {
    ExperimentResult r = FakeResult(100.0, p99_a, 0);
    experiment::FunctionResult f;
    f.type = TaskType::kInference;
    f.p99_ms = p99_b;
    r.functions.push_back(f);
    return r;
  };
  SweepSpec sweep("sel");
  sweep.Base("tiny")
      .Axis("cluster.recovery", {"joint", "greedy"})
      .Require("p99_ms", ThresholdOp::kLe, 1.2, true, 1)
      .Require("p99_ms", ThresholdOp::kLe, 1.2, true);
  const SweepReport report =
      AggregateSweep(sweep, {result(100.0, 50.0), result(200.0, 55.0)});
  ASSERT_EQ(report.thresholds.size(), 2u);
  EXPECT_TRUE(report.thresholds[0].pass);
  EXPECT_DOUBLE_EQ(report.thresholds[0].bound, 60.0);
  EXPECT_DOUBLE_EQ(report.thresholds[0].observed, 55.0);
  EXPECT_FALSE(report.thresholds[1].pass);
  EXPECT_DOUBLE_EQ(report.thresholds[1].observed, 200.0);
  EXPECT_NE(report.ToJson().find("{\"require\": \"p99_ms[fn=1]\""),
            std::string::npos);
}

TEST(SweepAggregate, JsonAndCsvCarrySchemaAndCells)
{
  SweepSpec sweep("fmt");
  sweep.Base("tiny").Seeds(2).Axis("workload[0].rps", {"5", "10"});
  const std::vector<ExperimentResult> results = {
      FakeResult(100, 10, 0), FakeResult(100, 12, 0),
      FakeResult(99, 20, 1), FakeResult(98, 22, 3)};
  const SweepReport report = AggregateSweep(sweep, results);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"dilu-sweep/1\""), std::string::npos);
  EXPECT_NE(json.find("\"point\": {\"workload[0].rps\": \"10\"}"),
            std::string::npos);
  const std::string csv = report.CellsCsv();
  EXPECT_NE(csv.find("cell,workload[0].rps,runs,availability_mean"),
            std::string::npos);
  EXPECT_NE(csv.find("\n1,10,2,98.500000"), std::string::npos);
}

// --- end to end: the checked-in mini sweep ---------------------------

struct MiniSweep {
  SweepSpec sweep;
  ExperimentSpec base;
};

MiniSweep
LoadMiniSweep()
{
  MiniSweep m;
  std::string error;
  const std::string sweep_text = ReadFileOrEmpty(
      std::string(DILU_EXPERIMENTS_DIR) + "/sweeps/mini.sweep");
  EXPECT_TRUE(SweepSpec::Parse(sweep_text, &m.sweep, &error)) << error;
  const std::string base_text = ReadFileOrEmpty(
      sweep::ResolveBase(m.sweep.base(), DILU_EXPERIMENTS_DIR));
  EXPECT_TRUE(ExperimentSpec::Parse(base_text, &m.base, &error)) << error;
  return m;
}

TEST(SweepEndToEnd, MiniSweepIsByteIdenticalAcrossThreadsAndReruns)
{
  const MiniSweep m = LoadMiniSweep();
  SweepReport serial;
  SweepReport parallel;
  SweepReport rerun;
  std::string error;
  ASSERT_TRUE(RunSweep(m.sweep, m.base, 1, &serial, &error)) << error;
  ASSERT_TRUE(RunSweep(m.sweep, m.base, 4, &parallel, &error)) << error;
  ASSERT_TRUE(RunSweep(m.sweep, m.base, 4, &rerun, &error)) << error;
  EXPECT_EQ(serial.ToJson(), parallel.ToJson());
  EXPECT_EQ(serial.CellsCsv(), parallel.CellsCsv());
  EXPECT_EQ(parallel.ToJson(), rerun.ToJson());
  EXPECT_TRUE(serial.pass);
}

TEST(SweepEndToEnd, MiniSweepMatchesGoldenReport)
{
  const MiniSweep m = LoadMiniSweep();
  SweepReport report;
  std::string error;
  ASSERT_TRUE(RunSweep(m.sweep, m.base, 2, &report, &error)) << error;
  const std::string json_path =
      std::string(DILU_GOLDEN_DIR) + "/sweep_mini_golden.json";
  const std::string csv_path =
      std::string(DILU_GOLDEN_DIR) + "/sweep_mini_golden_cells.csv";
  if (std::getenv("DILU_REGEN_GOLDEN") != nullptr) {
    std::ofstream(json_path, std::ios::binary) << report.ToJson();
    std::ofstream(csv_path, std::ios::binary) << report.CellsCsv();
    GTEST_SKIP() << "golden regenerated into " << json_path;
  }
  EXPECT_EQ(report.ToJson(), ReadFileOrEmpty(json_path))
      << "experiments/sweeps/mini.sweep drifted from its golden; "
         "regenerate with DILU_REGEN_GOLDEN=1 if the change is "
         "intentional";
  EXPECT_EQ(report.CellsCsv(), ReadFileOrEmpty(csv_path));
}

TEST(SweepEndToEnd, ImpossibleThresholdFailsTheVerdict)
{
  const MiniSweep m = LoadMiniSweep();
  SweepSpec strict = m.sweep;
  strict.Require("availability", ThresholdOp::kGe, 101.0);
  SweepReport report;
  std::string error;
  ASSERT_TRUE(RunSweep(strict, m.base, 2, &report, &error)) << error;
  EXPECT_FALSE(report.pass);
  EXPECT_FALSE(report.thresholds.back().pass);
  // The passing clauses of the checked-in sweep still pass.
  for (std::size_t i = 0; i + 1 < report.thresholds.size(); ++i) {
    EXPECT_TRUE(report.thresholds[i].pass) << i;
  }
}

TEST(SweepEndToEnd, ShardsAxisRoutesThroughShardedDriver)
{
  // A 2-shard cell must produce the same *kind* of report as 1-shard
  // (and the whole matrix must still be deterministic across threads).
  // Two deploys on two nodes so each shard owns real work.
  ExperimentSpec base("twin");
  base.cluster().nodes = 2;
  base.AddInference("bert-base").provision = 1;
  base.AddInference("roberta-large").provision = 1;
  base.AddPoisson(0, 10.0, Sec(5));
  base.AddPoisson(1, 10.0, Sec(5));
  base.RunFor(Sec(6));
  SweepSpec sweep("shards");
  sweep.Base("tiny").Seeds(2).Axis("run.shards", {"1", "2"});
  SweepReport a;
  SweepReport b;
  std::string error;
  ASSERT_TRUE(RunSweep(sweep, base, 1, &a, &error)) << error;
  ASSERT_TRUE(RunSweep(sweep, base, 4, &b, &error)) << error;
  EXPECT_EQ(a.ToJson(), b.ToJson());
  ASSERT_EQ(a.cells.size(), 2u);
  // Both drivers served traffic.
  std::size_t completed = 0;
  const auto& names = sweep::SweepMetricNames();
  while (names[completed] != "completed") ++completed;
  EXPECT_GT(a.cells[0].metrics[completed].mean, 0.0);
  EXPECT_GT(a.cells[1].metrics[completed].mean, 0.0);
}

// --- the gated galleries (experiments/sweeps/, experiments/paper/) ---

/**
 * Every checked-in sweep with its clauses, the gallery's and the paper
 * figures': each clause holds, and each one alone set to an
 * unreachable bound fails the sweep under its own name while the
 * others still hold, so no clause is vacuous.
 */
TEST(PaperSweeps, EveryClauseHoldsAndEachIsFalsifiable)
{
  const std::string experiments = DILU_EXPERIMENTS_DIR;
  const std::string root = experiments.substr(0, experiments.rfind('/'));
  auto sweeps = experiment::ListGallery(experiments + "/sweeps", ".sweep");
  ASSERT_GE(sweeps.size(), 6u);
  const auto paper =
      experiment::ListGallery(experiments + "/paper", ".sweep");
  ASSERT_GE(paper.size(), 17u);
  sweeps.insert(sweeps.end(), paper.begin(), paper.end());
  for (const experiment::GalleryEntry& entry : sweeps) {
    SCOPED_TRACE(entry.path);
    SweepSpec spec;
    ExperimentSpec base;
    std::string error;
    ASSERT_TRUE(SweepSpec::Parse(ReadFileOrEmpty(entry.path), &spec, &error))
        << error;
    // A paper sweep names its base by root-relative path, a gallery
    // sweep by its stem: resolved as dilu_sweep run from the root does.
    const std::string base_path =
        root + "/" + sweep::ResolveBase(spec.base(), "experiments");
    ASSERT_TRUE(ExperimentSpec::Parse(ReadFileOrEmpty(base_path), &base,
                                      &error))
        << error;
    SweepMatrix matrix;
    ASSERT_TRUE(ExpandSweep(spec, base, &matrix, &error)) << error;
    const std::vector<ExperimentResult> results = ExecuteSweep(matrix, 2);
    const SweepReport report = AggregateSweep(spec, results);
    EXPECT_TRUE(report.pass) << report.ToJson();
    ASSERT_FALSE(spec.thresholds().empty());

    for (std::size_t i = 0; i < spec.thresholds().size(); ++i) {
      const Threshold& t = spec.thresholds()[i];
      SCOPED_TRACE(t.Subject());
      SweepSpec broken(spec.name());
      broken.Base(spec.base()).Seeds(spec.seeds(), spec.seed_base());
      for (const sweep::SweepVariant& v : spec.variants()) {
        broken.Variant(v.name, v.params);
      }
      for (const sweep::SweepAxis& a : spec.axes()) {
        broken.Axis(a.path, a.values);
      }
      for (std::size_t k = 0; k < spec.thresholds().size(); ++k) {
        const Threshold& c = spec.thresholds()[k];
        // Metrics are >= 0, so <= -1 and >= 1e300 are out of reach.
        const double unreachable = c.op == ThresholdOp::kLe ? -1.0 : 1e300;
        broken.Require(c.metric, c.op, k == i ? unreachable : c.value,
                       k == i ? false : c.relative, c.fn);
      }
      const SweepReport failed = AggregateSweep(broken, results);
      EXPECT_FALSE(failed.pass);
      for (std::size_t k = 0; k < failed.thresholds.size(); ++k) {
        EXPECT_EQ(failed.thresholds[k].pass, k != i) << k;
      }
      EXPECT_NE(failed.ToJson().find("\"require\": \"" + t.Subject() + "\""),
                std::string::npos);
    }
  }
}

// --- gallery listing -------------------------------------------------

TEST(Gallery, ListsExperimentsSortedWithDescriptions)
{
  const auto entries =
      experiment::ListGallery(DILU_EXPERIMENTS_DIR, ".exp");
  ASSERT_GE(entries.size(), 10u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
  bool found = false;
  for (const auto& e : entries) {
    if (e.name != "quickstart") continue;
    found = true;
    EXPECT_NE(e.description.find("quickstart scenario as data"),
              std::string::npos)
        << e.description;
  }
  EXPECT_TRUE(found);
  const std::string listing = experiment::FormatGallery(entries);
  EXPECT_NE(listing.find("  quickstart"), std::string::npos);
}

TEST(Gallery, ListsSweepGalleryAndHandlesMissingDir)
{
  const auto sweeps = experiment::ListGallery(
      std::string(DILU_EXPERIMENTS_DIR) + "/sweeps", ".sweep");
  ASSERT_GE(sweeps.size(), 4u);
  bool found = false;
  for (const auto& e : sweeps) found = found || e.name == "mini";
  EXPECT_TRUE(found);
  EXPECT_TRUE(
      experiment::ListGallery("/nonexistent/dir", ".exp").empty());
  EXPECT_EQ(experiment::FormatGallery({}), "");
}

}  // namespace
}  // namespace dilu
