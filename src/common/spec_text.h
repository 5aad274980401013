/**
 * @file
 * Shared primitives for the line-oriented declarative spec formats
 * (chaos scenarios, experiment specs): time/number round-tripping and
 * comment handling. Both loaders follow the same discipline — canonical
 * printing, lenient-but-loud parsing with line-numbered errors — so the
 * token grammar lives in one place.
 */
#ifndef DILU_COMMON_SPEC_TEXT_H_
#define DILU_COMMON_SPEC_TEXT_H_

#include <cstdint>
#include <string>

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
bool ParseTime(const std::string& tok, TimeUs* out);

/** Parse a whole-token int32 ("12"). */
bool ParseInt(const std::string& tok, std::int32_t* out);

/** Parse a whole-token uint64 of digits only, no sign (seeds). */
bool ParseUint64(const std::string& tok, std::uint64_t* out);

/** Parse a whole-token finite double ("2.5"; nan/inf are rejected). */
bool ParseDouble(const std::string& tok, double* out);

/** Strip "prefix" ("fn=", "rps=", "x") from `tok`; empty on mismatch. */
std::string StripPrefix(const std::string& tok, const std::string& prefix);

/**
 * Truncate `line` at the first '#': everything from it to the end of
 * the line is a comment. Both whole-line comments and trailing ones
 * ("at 10s fail_node 1  # node zero dies") parse cleanly; '#' can
 * therefore not appear inside a name or operand.
 */
std::string StripComment(const std::string& line);

/** Record "line N: msg" into `*error` (when non-null); returns false. */
bool Fail(std::string* error, int line, const std::string& msg);

}  // namespace dilu::spec_text

#endif  // DILU_COMMON_SPEC_TEXT_H_
