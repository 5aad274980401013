/**
 * @file
 * Parity of the spec tokenizer and number readers (common/spec_text)
 * with the std::string/stoll/stod versions they replaced.
 *
 * `reference` below is the earlier implementation, kept verbatim as
 * the definition of the token grammar: every reader must give the
 * same accept/reject answer and, on accept, the same value bit for
 * bit, on an edge corpus (signs, leading zeros, hex forms, inf/nan,
 * subnormal, overflow and underflow, int32/uint64 edges, time
 * suffixes and every C-locale blank at a token's edges) and on seeded
 * random tokens.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/spec_text.h"
#include "common/types.h"

namespace dilu::spec_text {
namespace {

namespace reference {

bool
ParseTime(std::string_view tok, TimeUs* out)
{
  std::size_t i = 0;
  while (i < tok.size()
         && (std::isdigit(static_cast<unsigned char>(tok[i])) != 0)) {
    ++i;
  }
  if (i == 0 || i == tok.size()) return false;
  const std::string digits(tok.substr(0, i));
  const std::string_view suffix = tok.substr(i);
  TimeUs value = 0;
  try {
    value = static_cast<TimeUs>(std::stoll(digits));
  } catch (...) {
    return false;
  }
  if (suffix == "us") {
    if (value > kTimeCapUs) return false;
    *out = Us(value);
  } else if (suffix == "ms") {
    if (value > kTimeCapUs / Ms(1)) return false;
    *out = Ms(value);
  } else if (suffix == "s") {
    if (value > kTimeCapUs / Sec(1)) return false;
    *out = Sec(value);
  } else {
    return false;
  }
  return true;
}

bool
ParseInt(std::string_view tok, std::int32_t* out)
{
  try {
    std::size_t used = 0;
    const long long v = std::stoll(std::string(tok), &used);
    if (used != tok.size()) return false;
    if (v < std::numeric_limits<std::int32_t>::min()
        || v > std::numeric_limits<std::int32_t>::max()) {
      return false;
    }
    *out = static_cast<std::int32_t>(v);
  } catch (...) {
    return false;
  }
  return true;
}

bool
ParseUint64(std::string_view tok, std::uint64_t* out)
{
  if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0]))) {
    return false;
  }
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(std::string(tok), &used);
    if (used != tok.size()) return false;
    *out = static_cast<std::uint64_t>(v);
  } catch (...) {
    return false;
  }
  return true;
}

bool
ParseDouble(std::string_view tok, double* out)
{
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(tok), &used);
    if (used != tok.size() || !std::isfinite(v)) return false;
    *out = v;
  } catch (...) {
    return false;
  }
  return true;
}

/** Every token of `line`, as the old find_first_of tokenizer read it. */
std::vector<std::string_view>
Split(std::string_view rest)
{
  constexpr std::string_view kBlanks = " \t\n\v\f\r";
  std::vector<std::string_view> out;
  for (;;) {
    const std::size_t begin = rest.find_first_not_of(kBlanks);
    if (begin == std::string_view::npos) return out;
    const std::size_t end =
        std::min(rest.find_first_of(kBlanks, begin), rest.size());
    out.push_back(rest.substr(begin, end - begin));
    rest = rest.substr(end);
  }
}

}  // namespace reference

std::vector<std::string_view>
SplitNew(std::string_view line)
{
  Tokens toks(line);
  std::vector<std::string_view> out;
  std::string_view tok;
  while (toks.Next(&tok)) out.push_back(tok);
  EXPECT_TRUE(toks.rest().empty()) << "a spent line leaves nothing";
  return out;
}

std::uint64_t
Bits(double v)
{
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/** Printable form of a token (blanks and bytes escaped). */
std::string
Show(std::string_view tok)
{
  std::string s = "\"";
  for (const char c : tok) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x21 && u < 0x7f) {
      s += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      s += buf;
    }
  }
  return s + "\"";
}

/** Counts of accepted tokens per reader, so a corpus that no reader
 *  accepts (or rejects) cannot pass unnoticed. */
struct Coverage {
  int int_ok = 0, int_bad = 0;
  int u64_ok = 0, u64_bad = 0;
  int dbl_ok = 0, dbl_bad = 0;
  int time_ok = 0, time_bad = 0;
};

/** Every reader agrees with its reference on `tok`. */
void
ExpectParity(std::string_view tok, Coverage* cov)
{
  SCOPED_TRACE(Show(tok));
  {
    std::int32_t want = 7;
    std::int32_t got = 7;
    const bool ok = reference::ParseInt(tok, &want);
    ASSERT_EQ(ParseInt(tok, &got), ok);
    ASSERT_EQ(got, want);  // both untouched (7) on reject
    ++(ok ? cov->int_ok : cov->int_bad);
  }
  {
    std::uint64_t want = 7;
    std::uint64_t got = 7;
    const bool ok = reference::ParseUint64(tok, &want);
    ASSERT_EQ(ParseUint64(tok, &got), ok);
    ASSERT_EQ(got, want);
    ++(ok ? cov->u64_ok : cov->u64_bad);
  }
  {
    double want = 7.0;
    double got = 7.0;
    const bool ok = reference::ParseDouble(tok, &want);
    ASSERT_EQ(ParseDouble(tok, &got), ok);
    ASSERT_EQ(Bits(got), Bits(want)) << got << " vs " << want;
    ++(ok ? cov->dbl_ok : cov->dbl_bad);
  }
  {
    TimeUs want = 7;
    TimeUs got = 7;
    const bool ok = reference::ParseTime(tok, &want);
    ASSERT_EQ(ParseTime(tok, &got), ok);
    ASSERT_EQ(got, want);
    ++(ok ? cov->time_ok : cov->time_bad);
  }
}

constexpr std::string_view kBlanks = " \t\n\v\f\r";

TEST(SpecTextParity, EdgeCorpusMatchesTheStringReaders)
{
  std::vector<std::string> corpus = {
      "", "+5", "-0", "+0", "007", "0x10", "0X10", "0x1p3", "0X1P3",
      "-0x1p3", "+0x1p3", "0x", "0x.8", "0xp3", "0x1p", "0x1p-1074",
      "0x1p-1075", "0x1p-1022", "0x1.8p1", "0x1p1024", ".5", "5.", ".",
      "-.5", "+.5", "1e5", "1E5", "1e+5", "1e-5", "1e", "1e+", "1.5e-",
      "inf", "-inf", "+inf", "INF", "infinity", "Infinity", "nan", "NAN",
      "-nan", "nan(1)", "in", "na", "1e-310", "-1e-310", "1e-400",
      "-1e-400", "1e400", "-1e400", "0e-400", "0e999999", "0.0e-999",
      "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.2250738585072014e-308", "2.2250738585072011e-308",
      "2.2250738585072012e-308", "-2.2250738585072012e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "2147483647", "2147483648", "-2147483648",
      "-2147483649", "4294967296", "9223372036854775807",
      "9223372036854775808", "-9223372036854775809",
      "18446744073709551615", "18446744073709551616", "5s", "5ms", "5us",
      "5S", "5Ms", "5sec", "5", "s", "ms", "-5s", "+5s", "0s", "0us",
      "99999999999999s", "1000000000s", "1000000001s", "999999999999ms",
      "1000000000000ms", "1000000000000001us", "31536000000000000us",
      "99999999999999999999s", "+-5", "-+5", "--5", "++5", "-", "+",
      "1,5", "1_000", "0b101", "12x", "x12", "1.5.5", "٣",
      std::string("5\0", 2), std::string("\0" "5", 2), "\xff", "5\xff",
      "00000000000000000000000000000000000000001",
      "0.000000000000000000000000000000000000000000000001e-280",
      "100000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000e-"
      "430"};
  // Every C-locale blank at each edge of a few readable tokens.
  for (const char b : kBlanks) {
    for (const char* t : {"5", "-5", "+5", "1.5", "0x1p3", "5s", "7ms"}) {
      const std::string tok = t;
      corpus.push_back(std::string(1, b) + tok);
      corpus.push_back(tok + std::string(1, b));
      corpus.push_back(std::string(1, b) + tok + std::string(1, b));
      corpus.push_back(std::string(2, b) + tok);
    }
    corpus.emplace_back(1, b);
  }
  Coverage cov;
  ExpectParity(std::string_view(), &cov);  // no data at all (StripPrefix)
  for (const std::string& tok : corpus) {
    ExpectParity(tok, &cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cov.int_ok, 10);
  EXPECT_GT(cov.dbl_ok, 30);
  EXPECT_GT(cov.time_ok, 5);
  EXPECT_GT(cov.u64_ok, 5);

  // The readers' answers on the named edges, spelled out.
  std::int32_t i = 0;
  EXPECT_TRUE(ParseInt("+5", &i));
  EXPECT_EQ(i, 5);
  EXPECT_FALSE(ParseInt("2147483648", &i));
  EXPECT_FALSE(ParseInt("0x10", &i));
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("0x1p3", &d));
  EXPECT_EQ(d, 8.0);
  EXPECT_FALSE(ParseDouble("1e-400", &d));
  EXPECT_FALSE(ParseDouble("1e400", &d));
  EXPECT_FALSE(ParseDouble("inf", &d));
  std::uint64_t u = 0;
  EXPECT_FALSE(ParseUint64("18446744073709551616", &u));
  EXPECT_FALSE(ParseUint64("+5", &u));
  TimeUs t = 0;
  EXPECT_FALSE(ParseTime("99999999999999s", &t));
  EXPECT_FALSE(ParseTime("5S", &t));
  EXPECT_TRUE(ParseTime("5us", &t));
  EXPECT_EQ(t, 5);

  for (const std::string& line :
       {std::string(""), std::string(" \t\n\v\f\r"), std::string("a"),
        std::string("  a\tb\n\nc\v\fd\re  "), std::string("x=1 y=2")}) {
    SCOPED_TRACE(Show(line));
    EXPECT_EQ(SplitNew(line), reference::Split(line));
  }
}

/** A random token: bytes drawn from number-shaped alphabets. */
std::string
RandomToken(Rng& rng)
{
  static constexpr std::string_view kDigits = "0123456789";
  static constexpr std::string_view kShape = ".+-eExXpPinfaINFAsmuSdn";
  static constexpr std::string_view kOdd = " \t\n\v\f\r\0\xff,_#";
  const auto len = static_cast<int>(rng.UniformInt(0, 14));
  std::string tok;
  for (int k = 0; k < len; ++k) {
    const double r = rng.Uniform();
    const std::string_view from = r < 0.6 ? kDigits
        : r < 0.93                        ? kShape
                                          : kOdd;
    tok += from[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(from.size()) - 1))];
  }
  return tok;
}

/** A random well-formed number: decimal or hex, any magnitude. */
std::string
RandomNumber(Rng& rng)
{
  char buf[96];
  const double mant = rng.Uniform(1.0, 10.0);
  const auto exp10 = static_cast<int>(rng.UniformInt(-330, 330));
  const double v = (rng.Uniform() < 0.5 ? -1.0 : 1.0) * mant
      * std::pow(10.0, static_cast<double>(exp10));
  switch (rng.UniformInt(0, 5)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.*g",
                    static_cast<int>(rng.UniformInt(1, 17)), v);
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%.*e",
                    static_cast<int>(rng.UniformInt(0, 20)), mant);
      std::snprintf(buf + std::strlen(buf) - 4, 16, "e%d", exp10);
      break;
    case 2: std::snprintf(buf, sizeof buf, "%a", v); break;
    case 3: {
      constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      const std::int64_t i = rng.UniformInt(kMin, kMax);
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(i >> rng.UniformInt(0, 63)));
      break;
    }
    case 4: {
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      const std::int64_t i = rng.UniformInt(0, kMax);
      std::snprintf(buf, sizeof buf, "%lld%s",
                    static_cast<long long>(i >> rng.UniformInt(0, 63)),
                    rng.Uniform() < 0.5 ? "s" : "ms");
      break;
    }
    default:
      std::snprintf(buf, sizeof buf, "%.*f",
                    static_cast<int>(rng.UniformInt(0, 8)),
                    mant * static_cast<double>(rng.UniformInt(0, 100000)));
      break;
  }
  std::string tok = buf;
  if (rng.Uniform() < 0.1) tok.insert(0, "+");
  return tok;
}

TEST(SpecTextParity, SeededRandomTokensMatchTheStringReaders)
{
  Rng rng(20261020);
  Coverage cov;
  std::string line;
  for (int n = 0; n < 120000; ++n) {
    const std::string tok = n % 2 == 0 ? RandomToken(rng) : RandomNumber(rng);
    ExpectParity(tok, &cov);
    if (HasFatalFailure()) return;
    // Tokenize the tokens strung together as one line, every 64.
    line += tok;
    line += kBlanks[static_cast<std::size_t>(rng.UniformInt(0, 5))];
    if (n % 64 == 63) {
      ASSERT_EQ(SplitNew(line), reference::Split(line)) << Show(line);
      line.clear();
    }
  }
  // Both answers are exercised for every reader.
  EXPECT_GT(cov.int_ok, 5000);
  EXPECT_GT(cov.int_bad, 5000);
  EXPECT_GT(cov.u64_ok, 5000);
  EXPECT_GT(cov.u64_bad, 5000);
  EXPECT_GT(cov.dbl_ok, 20000);
  EXPECT_GT(cov.dbl_bad, 5000);
  EXPECT_GT(cov.time_ok, 5000);
  EXPECT_GT(cov.time_bad, 5000);
}

}  // namespace
}  // namespace dilu::spec_text
