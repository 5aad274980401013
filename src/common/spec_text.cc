#include "common/spec_text.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <system_error>

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

namespace {

/** The blanks `std::istream >> std::string` skips in the C locale (and
 *  strtoll/strtod skip before a number). */
bool
IsBlank(char c)
{
  return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
IsDigit(char c)
{
  return c >= '0' && c <= '9';
}

/**
 * Where strtoll/strtod would start reading digits in [p, end): past
 * leading blanks and a '+' sign (from_chars takes neither); null when
 * the '+' is followed by another sign, which they reject.
 */
const char*
SkipBlanksAndPlus(const char* p, const char* end)
{
  while (p != end && IsBlank(*p)) ++p;
  if (p != end && *p == '+') {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) return nullptr;
  }
  return p;
}

/** The whole of [p, end) as one T: a base-10 integer, or a double in
 *  from_chars' general (plain decimal) format. */
template <typename T>
bool
ReadWhole(const char* p, const char* end, T* out)
{
  const std::from_chars_result r = std::from_chars(p, end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

/**
 * strtod's reading of `tok`, with stod's checks: the whole token, no
 * range error (glibc reports overflow, underflow to zero and inexact
 * subnormals), finite. strtod needs a terminated string: the token is
 * copied to the stack, or to the heap past 63 characters.
 */
bool
StrtodWhole(std::string_view tok, double* out)
{
  char small[64];
  std::string large;
  const char* s = small;
  if (tok.size() < sizeof small) {
    *std::copy(tok.begin(), tok.end(), small) = '\0';
  } else {
    large.assign(tok);
    s = large.c_str();
  }
  char* stop = nullptr;
  errno = 0;
  const double v = std::strtod(s, &stop);
  if (stop == s || errno == ERANGE) return false;
  if (static_cast<std::size_t>(stop - s) != tok.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

bool
ParseTime(std::string_view tok, TimeUs* out)
{
  std::size_t i = 0;
  while (i < tok.size() && IsDigit(tok[i])) ++i;
  if (i == 0 || i == tok.size()) return false;
  const std::string_view suffix = tok.substr(i);
  TimeUs value = 0;
  if (!ReadWhole(tok.data(), tok.data() + i, &value)) return false;
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
  // Out-of-range values must error, not silently truncate: a mutated
  // "fn=4294967296" is a parse failure, not fn=0.
  const char* end = tok.data() + tok.size();
  const char* p = SkipBlanksAndPlus(tok.data(), end);
  std::int32_t v = 0;
  if (p == nullptr || !ReadWhole(p, end, &v)) return false;
  *out = v;
  return true;
}

bool
ParseUint64(std::string_view tok, std::uint64_t* out)
{
  // A leading digit, so no blank, sign or "-5" wrapping to 2^64 - 5.
  std::uint64_t v = 0;
  if (tok.empty() || !IsDigit(tok[0])
      || !ReadWhole(tok.data(), tok.data() + tok.size(), &v)) {
    return false;
  }
  *out = v;
  return true;
}

bool
ParseDouble(std::string_view tok, double* out)
{
  // from_chars reads the plain decimal forms strtod reads, correctly
  // rounded as strtod is, so a finite result above the smallest normal
  // is strtod's. Everything else (hex, zero, values at or below the
  // normal range's lower edge, where glibc may report underflow,
  // out-of-range values, inf/nan, partial reads) is decided by strtod
  // itself, so the accepted set stays strtod's exactly. nan/inf slip
  // past every `x <= 0.0`-style range check, so both paths reject them.
  const char* end = tok.data() + tok.size();
  const char* p = SkipBlanksAndPlus(tok.data(), end);
  if (p == nullptr) return false;
  double v = 0.0;
  if (ReadWhole(p, end, &v) && std::isfinite(v)
      && std::fabs(v) > std::numeric_limits<double>::min()) {
    *out = v;
    return true;
  }
  return StrtodWhole(tok, out);
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
  const char* p = rest_.data();
  const char* const end = p + rest_.size();
  while (p != end && IsBlank(*p)) ++p;
  if (p == end) {
    rest_ = {};
    return false;
  }
  const char* const begin = p;
  while (p != end && !IsBlank(*p)) ++p;
  *tok = std::string_view(begin, static_cast<std::size_t>(p - begin));
  rest_ = std::string_view(p, static_cast<std::size_t>(end - p));
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
