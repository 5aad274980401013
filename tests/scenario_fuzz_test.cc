/**
 * @file
 * Fuzz-style tests for the chaos event grammar, read the way the
 * experiment loader reads `chaos` lines (comments stripped, one
 * ParseEventLine per line): randomly generated valid scenarios (drawing
 * all fifteen verbs, each with its operand, magnitude and window) must
 * round-trip parse -> print -> parse byte-identically, and randomly
 * mutated lines must fail with a line-numbered error — never crash,
 * never be silently mis-parsed.
 *
 * Everything draws from a fixed-seed Rng, so a failure reproduces
 * exactly; crank kRounds locally for a longer soak.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "chaos/scenario.h"
#include "common/random.h"
#include "common/spec_text.h"

namespace dilu {
namespace {

constexpr int kRounds = 200;

TimeUs
RandomTime(Rng& rng)
{
  // Mix of exact-second, exact-millisecond and raw-microsecond times so
  // every FormatTime suffix branch is exercised.
  switch (rng.UniformInt(0, 2)) {
    case 0: return Sec(rng.UniformInt(0, 500));
    case 1: return Ms(rng.UniformInt(1, 500000));
    default: return Us(rng.UniformInt(1, 5000000));
  }
}

/** Magnitudes that %g prints exactly (so value equality is testable). */
double
RandomFactor(Rng& rng, double lo, double hi)
{
  // Quarter steps: exactly representable and %g-stable.
  const double steps = (hi - lo) * 4.0;
  return lo
      + 0.25 * static_cast<double>(
            rng.UniformInt(1, static_cast<std::int64_t>(steps) - 1));
}

chaos::ScenarioSpec
RandomSpec(Rng& rng)
{
  chaos::ScenarioSpec spec;
  const int events = static_cast<int>(rng.UniformInt(1, 12));
  for (int i = 0; i < events; ++i) {
    const TimeUs at = RandomTime(rng);
    const auto target = static_cast<std::int32_t>(rng.UniformInt(0, 63));
    switch (rng.UniformInt(0, 14)) {
      case 0: spec.FailGpu(at, target); break;
      case 1: spec.RecoverGpu(at, target); break;
      case 2: spec.FailNode(at, target); break;
      case 3: spec.RecoverNode(at, target); break;
      case 4: spec.DrainNode(at, target); break;
      case 5: spec.UndrainNode(at, target); break;
      case 6:
        // Capacities in {0.25, 0.5, 0.75}: inside (0, 1) and %g-exact.
        spec.DegradeGpu(at, target,
                        0.25 * static_cast<double>(rng.UniformInt(1, 3)));
        break;
      case 7:
        spec.StraggleGpu(at, target, RandomFactor(rng, 1.0, 8.0));
        break;
      case 8:
        // Half the checkpoint policies carry a save cost (save=).
        spec.CheckpointEvery(at, target, RandomTime(rng) + Ms(1),
                             rng.UniformInt(0, 1) == 0
                                 ? 0
                                 : RandomTime(rng) + Ms(1));
        break;
      case 9:
        spec.InflateColdStarts(at, RandomFactor(rng, 1.0, 10.0),
                               RandomTime(rng) + Ms(1));
        break;
      case 10:
        spec.Overload(at, target, RandomFactor(rng, 1.0, 16.0),
                      RandomTime(rng) + Ms(1));
        break;
      case 11:
        spec.ThrottleAdmit(at, target, RandomFactor(rng, 0.0, 500.0),
                           RandomTime(rng) + Ms(1));
        break;
      case 12:
        spec.FailLink(at, target, RandomTime(rng) + Ms(1));
        break;
      case 13:
        spec.StorageBrownout(at, RandomFactor(rng, 1.0, 8.0),
                             RandomTime(rng) + Ms(1));
        break;
      default:
        spec.Surge(at, target, RandomFactor(rng, 0.0, 200.0),
                   RandomTime(rng) + Ms(1));
        break;
    }
  }
  return spec;
}

/** `spec`'s events in canonical text, one FormatEventLine per line. */
std::string
EventLines(const chaos::ScenarioSpec& spec)
{
  std::string text;
  for (const chaos::ScenarioEvent& e : spec.events()) {
    text += chaos::FormatEventLine(e) + "\n";
  }
  return text;
}

/**
 * Read `text` as the experiment loader reads its `chaos` lines:
 * comments and blank lines skipped, every other line one
 * ParseEventLine. `*out` is only written on success.
 */
bool
ParseEventLines(const std::string& text, chaos::ScenarioSpec* out,
                std::string* error)
{
  chaos::ScenarioSpec spec;
  const bool ok = spec_text::ForEachLine(
      text, nullptr, [&](int line_no, spec_text::Tokens& toks) {
        return chaos::ScenarioSpec::ParseEventLine(toks.rest(), line_no,
                                                   &spec, error);
      });
  if (!ok) return false;
  if (out != nullptr) *out = std::move(spec);
  return true;
}

TEST(ScenarioFuzz, RandomValidSpecsRoundTripByteIdentically)
{
  Rng rng(0xF0221u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const chaos::ScenarioSpec spec = RandomSpec(rng);
    const std::string text = EventLines(spec);

    chaos::ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(ParseEventLines(text, &parsed, &error))
        << error << "\n" << text;
    // Canonical print: a second round-trip is byte-identical.
    EXPECT_EQ(EventLines(parsed), text);
    // And the parsed events are the authored events, value for value.
    ASSERT_EQ(parsed.events().size(), spec.events().size());
    for (std::size_t i = 0; i < parsed.events().size(); ++i) {
      const chaos::ScenarioEvent& a = spec.events()[i];
      const chaos::ScenarioEvent& b = parsed.events()[i];
      EXPECT_EQ(a.at, b.at);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.target, b.target);
      EXPECT_EQ(a.function, b.function);
      EXPECT_DOUBLE_EQ(a.magnitude, b.magnitude);
      EXPECT_EQ(a.duration, b.duration);
      EXPECT_EQ(a.save_cost, b.save_cost);
    }
  }
}

TEST(ScenarioFuzz, RandomByteMutationsNeverCrashTheParser)
{
  Rng rng(0xF0222u);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 =_.-x#\t";
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string text = EventLines(RandomSpec(rng));
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(text.size()) - 1));
      const char c = charset[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(charset.size()) - 1))];
      switch (rng.UniformInt(0, 2)) {
        case 0: text[pos] = c; break;                    // substitute
        case 1: text.erase(pos, 1); break;               // delete
        default: text.insert(pos, 1, c); break;          // insert
      }
    }
    // The contract under mutation: parse either succeeds (the mutation
    // kept the line grammatical) or fails with a line-numbered message
    // and leaves `out` untouched. It must never crash or throw. The
    // sentinel's negative GPU id is one no event line can spell.
    chaos::ScenarioSpec out;
    out.FailGpu(Sec(1), -7);
    const auto is_sentinel = [](const chaos::ScenarioEvent& e) {
      return e.kind == chaos::FaultKind::kGpuFail && e.target == -7;
    };
    std::string error;
    const bool ok = ParseEventLines(text, &out, &error);
    if (ok) {
      EXPECT_TRUE(std::none_of(out.events().begin(), out.events().end(),
                               is_sentinel))
          << "out not written on success";
    } else {
      EXPECT_NE(error.find("line "), std::string::npos)
          << "error lacks a line number: " << error;
      ASSERT_EQ(out.events().size(), 1u)
          << "out must be untouched on failure";
      EXPECT_TRUE(is_sentinel(out.events()[0]));
    }
  }
}

TEST(ScenarioFuzz, TargetedCorruptionsAlwaysError)
{
  Rng rng(0xF0223u);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    chaos::ScenarioSpec spec = RandomSpec(rng);
    std::string text = EventLines(spec);

    // Corrupt the last event line in a way that is never grammatical.
    const std::size_t line_start = text.rfind("at ");
    ASSERT_NE(line_start, std::string::npos);
    std::string corrupted;
    switch (rng.UniformInt(0, 3)) {
      case 0:  // unknown verb
        corrupted = text.substr(0, line_start) + "at 1s explode 3\n";
        break;
      case 1:  // missing operands
        corrupted = text.substr(0, line_start) + "at 1s fail_gpu\n";
        break;
      case 2:  // bad time unit
        corrupted = text.substr(0, line_start) + "at 10q fail_gpu 1\n";
        break;
      default:  // trailing garbage
        corrupted = text;
        corrupted.insert(corrupted.size() - 1, " trailing");
        break;
    }
    std::string error;
    EXPECT_FALSE(ParseEventLines(corrupted, nullptr, &error))
        << corrupted;
    EXPECT_NE(error.find("line "), std::string::npos) << error;
  }
}

TEST(ScenarioFuzz, NewVerbOperandValidation)
{
  const char* bad[] = {
      "at 1s degrade_gpu 0 x0",        // capacity must be > 0
      "at 1s degrade_gpu 0 x1",        // capacity must be < 1
      "at 1s degrade_gpu 0 x1.5",      // capacity must be < 1
      "at 1s degrade_gpu 0",           // missing factor
      "at 1s degrade_gpu 0 0.5",       // missing x prefix
      "at 1s straggle 0 x1",           // factor must be > 1
      "at 1s straggle 0 x0.5",         // factor must be > 1
      "at 1s straggle -1 x2",          // negative target
      "at 1s checkpoint_every fn=0",          // missing interval
      "at 1s checkpoint_every fn=0 every=0s", // non-positive interval
      "at 1s checkpoint_every fn=-1 every=5s",  // negative fn
      "at 1s checkpoint_every fn=0 5s",         // missing every=
      "at 1s overload fn=0 x1 for 10s",       // factor must be > 1
      "at 1s overload fn=0 x0.5 for 10s",     // factor must be > 1
      "at 1s overload fn=0 x4",               // missing window
      "at 1s overload x4 for 10s",            // missing fn=
      "at 1s overload fn=-1 x4 for 10s",      // negative fn
      "at 1s throttle_admit fn=0 rate=0 for 5s",   // rate must be > 0
      "at 1s throttle_admit fn=0 rate=-2 for 5s",  // rate must be > 0
      "at 1s throttle_admit fn=0 rate=10",         // missing window
      "at 1s throttle_admit rate=10 for 5s",       // missing fn=
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(ParseEventLines(text, nullptr, &error))
        << "accepted: " << text;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace dilu
