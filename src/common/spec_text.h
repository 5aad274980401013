/**
 * @file
 * Shared primitives for the line-oriented declarative spec formats —
 * chaos scenarios (also embedded as `chaos` lines), experiment specs
 * (.exp) and sweeps (.sweep): the comment-stripping line loop and its
 * tokeniser, time/number round-tripping and line-numbered errors. All
 * three loaders follow the same discipline — canonical printing,
 * lenient-but-loud parsing with line-numbered errors — so the token
 * grammar lives in one place.
 */
#ifndef DILU_COMMON_SPEC_TEXT_H_
#define DILU_COMMON_SPEC_TEXT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace dilu::spec_text {

/** Render a time with the densest exact suffix (1500000 -> "1500ms"). */
std::string FormatTime(TimeUs t);

/**
 * Render a double without trailing zeros ("2.5", "80") in the fewest
 * significant digits (at least 6) that parse back to the same value.
 */
std::string FormatDouble(double v);

/**
 * Parse "<int><us|ms|s>" into TimeUs. Values above ~31 simulated
 * years (1e9 s) are rejected so unit scaling cannot overflow and
 * small sums of parsed times stay far from the int64 edge.
 */
bool ParseTime(std::string_view tok, TimeUs* out);

/** Parse a whole-token int32 ("12"). */
bool ParseInt(std::string_view tok, std::int32_t* out);

/** Parse a whole-token uint64 of digits only, no sign (seeds). */
bool ParseUint64(std::string_view tok, std::uint64_t* out);

/** Parse a whole-token finite double ("2.5"; nan/inf are rejected). */
bool ParseDouble(std::string_view tok, double* out);

/** Strip "prefix" ("fn=", "rps=", "x") from `tok`; empty on mismatch. */
std::string_view StripPrefix(std::string_view tok, std::string_view prefix);

/** The whitespace-separated tokens of one spec line, read in order. */
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  /** Store the next token in `*tok`; false at the end of the line. */
  bool Next(std::string_view* tok);

  /** What is left of the line (hand it to a nested grammar). */
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/**
 * Run `fn(line_no, toks)` over every line of `text` that still holds a
 * token once its comment is cut (everything from the first '#' on, so
 * whole-line and trailing comments both parse cleanly and '#' can not
 * appear inside a name or operand); `toks` reads the line from its
 * first token. Stops at the first line `fn` rejects and returns false;
 * `*lines` (when non-null) ends as the number of the last line read.
 */
template <typename Fn>
bool
ForEachLine(std::string_view text, int* lines, Fn&& fn)
{
  int line_no = 0;
  bool ok = true;
  for (std::size_t pos = 0; ok && pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    Tokens toks(line.substr(0, line.find('#')));
    Tokens probe = toks;
    std::string_view first;
    if (probe.Next(&first)) ok = fn(line_no, toks);
  }
  if (lines != nullptr) *lines = line_no;
  return ok;
}

/** Record "line N: msg" into `*error` (when non-null); returns false. */
bool Fail(std::string* error, int line, const std::string& msg);

/**
 * The line must be used up: fails with "unexpected trailing '<tok>'"
 * when a token is left, so typos fail loudly.
 */
bool AtEnd(Tokens& toks, int line, std::string* error);

/**
 * Read the single word a directive takes ("experiment <name>", "base
 * <experiment>"): fails with `missing` when there is none and as
 * AtEnd does when more follow.
 */
bool OneWord(Tokens& toks, int line, const char* missing, std::string* out,
             std::string* error);

}  // namespace dilu::spec_text

#endif  // DILU_COMMON_SPEC_TEXT_H_
