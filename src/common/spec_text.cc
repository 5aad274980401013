#include "common/spec_text.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dilu::spec_text {

std::string
FormatTime(TimeUs t)
{
  if (t % Sec(1) == 0) return std::to_string(t / Sec(1)) + "s";
  if (t % Ms(1) == 0) return std::to_string(t / Ms(1)) + "ms";
  return std::to_string(t) + "us";
}

std::string
FormatDouble(double v)
{
  // The shortest %g precision from 6 up that reads back as the same
  // double: values %g prints exactly keep their familiar form, and no
  // printed spec describes a different run than the one it came from.
  char buf[64];
  for (int precision = 6; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

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
  // Cap parsed times at kTimeCapUs (~31 years). This both rejects
  // values whose unit scaling would overflow TimeUs (a mutated
  // "99999999999999s" must be a parse error, not signed-overflow UB)
  // and keeps small sums of parsed times (start + warmup + duration,
  // at + duration) far away from the int64 edge. Simulation::RunFor
  // saturates at the same cap, closing the other half of the overflow.
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
    // Out-of-range values must error, not silently truncate: a
    // mutated "fn=4294967296" is a parse failure, not fn=0.
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
  // stoull skips leading blanks and negates a '-' sign, so " -5" would
  // wrap to 2^64 - 5: insist the token starts with a digit.
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
    // nan/inf slip past every `x <= 0.0`-style range check.
    if (used != tok.size() || !std::isfinite(v)) return false;
    *out = v;
  } catch (...) {
    return false;
  }
  return true;
}

std::string_view
StripPrefix(std::string_view tok, std::string_view prefix)
{
  if (tok.size() <= prefix.size() || tok.substr(0, prefix.size()) != prefix) {
    return {};
  }
  return tok.substr(prefix.size());
}

bool
Tokens::Next(std::string_view* tok)
{
  // The blanks `std::istream >> std::string` skips in the C locale.
  constexpr std::string_view kBlanks = " \t\n\v\f\r";
  const std::size_t begin = rest_.find_first_not_of(kBlanks);
  if (begin == std::string_view::npos) {
    rest_ = {};
    return false;
  }
  const std::size_t end = std::min(rest_.find_first_of(kBlanks, begin),
                                    rest_.size());
  *tok = rest_.substr(begin, end - begin);
  rest_ = rest_.substr(end);
  return true;
}

bool
Fail(std::string* error, int line, const std::string& msg)
{
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + msg;
  }
  return false;
}

bool
AtEnd(Tokens& toks, int line, std::string* error)
{
  std::string_view rest;
  if (!toks.Next(&rest)) return true;
  return Fail(error, line, "unexpected trailing '" + std::string(rest) + "'");
}

bool
OneWord(Tokens& toks, int line, const char* missing, std::string* out,
        std::string* error)
{
  std::string_view word;
  if (!toks.Next(&word)) return Fail(error, line, missing);
  if (!AtEnd(toks, line, error)) return false;
  *out = std::string(word);
  return true;
}

}  // namespace dilu::spec_text
