/**
 * @file
 * Fuzz-style tests for the sweep text loader, mirroring
 * experiment_fuzz_test.cc: randomly generated valid sweeps (covering
 * seeds bases, multi-axis grids, the run.shards pseudo-axis, variant
 * cells, both threshold flavors and per-function `[fn=i]` selectors)
 * must round-trip parse -> print -> parse byte-identically, and
 * randomly mutated sweeps must fail with a line-numbered error — never
 * crash, never be silently mis-parsed.
 *
 * Everything draws from a fixed-seed Rng, so a failure reproduces
 * exactly; crank kRounds locally for a longer soak.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sweep/sweep_report.h"
#include "sweep/sweep_spec.h"

namespace dilu {
namespace {

using sweep::SweepSpec;
using sweep::ThresholdOp;

constexpr int kRounds = 150;

/** A value token FormatDouble prints back verbatim (quarter steps). */
std::string
RandomValue(Rng& rng)
{
  switch (rng.UniformInt(0, 2)) {
    case 0: return std::to_string(rng.UniformInt(1, 500));
    case 1: {
      // x.25 / x.5 / x.75 — exact in binary, stable under %g.
      const auto quarters = rng.UniformInt(1, 2000);
      const auto whole = quarters / 4;
      const char* const frac[] = {"", ".25", ".5", ".75"};
      std::string s = std::to_string(whole) + frac[quarters % 4];
      return s == std::to_string(whole) ? s + ".5" : s;
    }
    default: {
      const char* const words[] = {"joint", "greedy", "dilu", "eager",
                                   "on", "off", "critical", "10s"};
      return words[rng.UniformInt(0, 7)];
    }
  }
}

SweepSpec
RandomSweep(Rng& rng)
{
  SweepSpec spec("fuzz" + std::to_string(rng.UniformInt(0, 999)));
  const char* const bases[] = {"quickstart", "chaos_burst",
                               "overload_shed", "shard_islands"};
  spec.Base(bases[rng.UniformInt(0, 3)]);

  if (rng.UniformInt(0, 1) == 0) {
    spec.Seeds(static_cast<int>(rng.UniformInt(1, 20)),
               static_cast<std::uint64_t>(rng.UniformInt(1, 1 << 20)));
  }

  // --- axes: unique paths, unique values within each axis ---
  const char* const paths[] = {"cluster.nodes",     "cluster.recovery",
                               "workload[0].rps",   "deploy[0].provision",
                               "chaos.intensity",   "run.shards",
                               "deploy[1].backoff", "run.for"};
  const int axes = static_cast<int>(rng.UniformInt(0, 4));
  std::vector<bool> used(8, false);
  for (int a = 0; a < axes; ++a) {
    std::size_t p = 0;
    do {
      p = static_cast<std::size_t>(rng.UniformInt(0, 7));
    } while (used[p]);
    used[p] = true;
    std::vector<std::string> values;
    const int count = static_cast<int>(rng.UniformInt(1, 5));
    for (int v = 0; v < count; ++v) {
      std::string value = RandomValue(rng);
      bool duplicate = false;
      for (const std::string& seen : values) {
        duplicate = duplicate || seen == value;
      }
      if (!duplicate) values.push_back(std::move(value));
    }
    spec.Axis(paths[p], std::move(values));
  }

  // --- variants: unique names, each setting paths no axis sweeps ---
  const int variants = static_cast<int>(rng.UniformInt(0, 3));
  for (int v = 0; v < variants; ++v) {
    std::vector<std::pair<std::string, std::string>> params;
    const int count = static_cast<int>(rng.UniformInt(1, 3));
    for (int k = 0; k < count; ++k) {
      const auto p = static_cast<std::size_t>(rng.UniformInt(0, 7));
      bool taken = used[p];
      for (const auto& set : params) taken = taken || set.first == paths[p];
      if (!taken) params.emplace_back(paths[p], RandomValue(rng));
    }
    if (params.empty()) continue;
    spec.Variant("v" + std::to_string(v), std::move(params));
  }

  // --- thresholds: any registry metric, both ops, both flavors (a
  // relative one only with a second cell), some per-function ---
  const auto& metrics = sweep::SweepMetricNames();
  const int requires_count = static_cast<int>(rng.UniformInt(0, 3));
  for (int t = 0; t < requires_count; ++t) {
    const std::string& metric = metrics[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(metrics.size()) - 1))];
    const ThresholdOp op =
        rng.UniformInt(0, 1) == 0 ? ThresholdOp::kLe : ThresholdOp::kGe;
    const double value =
        0.25 * static_cast<double>(rng.UniformInt(0, 4000));
    const bool relative = spec.Cells() > 1 && rng.UniformInt(0, 2) == 0;
    const int fn = sweep::IsFunctionMetric(metric) && rng.UniformInt(0, 2) == 0
                       ? static_cast<int>(rng.UniformInt(0, 3))
                       : -1;
    spec.Require(metric, op, value, relative, fn);
  }
  return spec;
}

TEST(SweepFuzz, RandomValidSweepsRoundTripByteIdentically)
{
  Rng rng(0x53EE41u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const SweepSpec spec = RandomSweep(rng);
    const std::string text = spec.ToText();

    SweepSpec parsed;
    std::string error;
    ASSERT_TRUE(SweepSpec::Parse(text, &parsed, &error))
        << error << "\n" << text;
    EXPECT_EQ(parsed.ToText(), text);
    EXPECT_EQ(parsed.seeds(), spec.seeds());
    EXPECT_EQ(parsed.seed_base(), spec.seed_base());
    EXPECT_EQ(parsed.axes().size(), spec.axes().size());
    EXPECT_EQ(parsed.variants().size(), spec.variants().size());
    EXPECT_EQ(parsed.thresholds().size(), spec.thresholds().size());
    for (std::size_t t = 0; t < spec.thresholds().size(); ++t) {
      EXPECT_EQ(parsed.thresholds()[t].fn, spec.thresholds()[t].fn);
    }
    EXPECT_EQ(parsed.Runs(), spec.Runs());
  }
}

TEST(SweepFuzz, RandomByteMutationsNeverCrashTheParser)
{
  Rng rng(0x53EE42u);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 =_.-x#\t";
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSweep(rng).ToText();
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(text.size()) - 1));
      const char c = charset[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(charset.size()) - 1))];
      switch (rng.UniformInt(0, 2)) {
        case 0: text[pos] = c; break;            // substitute
        case 1: text.erase(pos, 1); break;       // delete
        default: text.insert(pos, 1, c); break;  // insert
      }
    }
    // The contract under mutation: parse either succeeds (the mutation
    // kept the sweep grammatical) or fails with a line-numbered message
    // and leaves `out` untouched. It must never crash or throw.
    SweepSpec out("sentinel");
    out.Axis("cluster.nodes", {"1"});
    std::string error;
    const bool ok = SweepSpec::Parse(text, &out, &error);
    if (ok) {
      EXPECT_NE(out.name(), "sentinel") << "out not written on success";
    } else {
      EXPECT_NE(error.find("line "), std::string::npos)
          << "error lacks a line number: " << error;
      ASSERT_EQ(out.axes().size(), 1u)
          << "out must be untouched on failure";
      EXPECT_EQ(out.name(), "sentinel");
    }
  }
}

TEST(SweepFuzz, TargetedCorruptionsAlwaysError)
{
  Rng rng(0x53EE43u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = RandomSweep(rng).ToText();
    switch (rng.UniformInt(0, 7)) {
      case 0:  // unknown directive
        text += "explode everything\n";
        break;
      case 5:  // a fleet-wide metric has no per-function value
        text += "require avg_gpus[fn=0] <= 9\n";
        break;
      case 6:  // a variant that sets nothing
        text += "variant lonely\n";
        break;
      case 7:  // a malformed selector
        text += "require p95_ms[fn=-1] <= 9\n";
        break;
      case 1:  // second sweep line
        text += "sweep doppelganger\n";
        break;
      case 2:  // metric outside the registry
        text += "require warp <= 9\n";
        break;
      case 3:  // relative bound missing its baseline token
        text += "require p99_ms <= 1.5x\n";
        break;
      default:  // seed 0 means "no override" and is rejected
        text += "seeds 3 base=0\n";
        break;
    }
    std::string error;
    EXPECT_FALSE(SweepSpec::Parse(text, nullptr, &error)) << text;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace dilu
