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
ParseTime(const std::string& tok, TimeUs* out)
{
  std::size_t i = 0;
  while (i < tok.size()
         && (std::isdigit(static_cast<unsigned char>(tok[i])) != 0)) {
    ++i;
  }
  if (i == 0 || i == tok.size()) return false;
  const std::string digits = tok.substr(0, i);
  const std::string suffix = tok.substr(i);
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
ParseInt(const std::string& tok, std::int32_t* out)
{
  try {
    std::size_t used = 0;
    const long long v = std::stoll(tok, &used);
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
ParseUint64(const std::string& tok, std::uint64_t* out)
{
  // stoull skips leading blanks and negates a '-' sign, so " -5" would
  // wrap to 2^64 - 5: insist the token starts with a digit.
  if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0]))) {
    return false;
  }
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(tok, &used);
    if (used != tok.size()) return false;
    *out = static_cast<std::uint64_t>(v);
  } catch (...) {
    return false;
  }
  return true;
}

bool
ParseDouble(const std::string& tok, double* out)
{
  try {
    std::size_t used = 0;
    const double v = std::stod(tok, &used);
    // nan/inf slip past every `x <= 0.0`-style range check.
    if (used != tok.size() || !std::isfinite(v)) return false;
    *out = v;
  } catch (...) {
    return false;
  }
  return true;
}

std::string
StripPrefix(const std::string& tok, const std::string& prefix)
{
  if (tok.size() <= prefix.size()
      || tok.compare(0, prefix.size(), prefix) != 0) {
    return "";
  }
  return tok.substr(prefix.size());
}

std::string
StripComment(const std::string& line)
{
  const std::size_t hash = line.find('#');
  return hash == std::string::npos ? line : line.substr(0, hash);
}

bool
Fail(std::string* error, int line, const std::string& msg)
{
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + msg;
  }
  return false;
}

}  // namespace dilu::spec_text
