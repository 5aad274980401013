/**
 * @file
 * The result reports' JSON writer: printf-style appends for fixed-shape
 * records and escaping for strings that flow in from specs. The
 * experiment report (dilu-experiment/1) and the sweep report
 * (dilu-sweep/1) both write through it.
 */
#ifndef DILU_COMMON_JSON_H_
#define DILU_COMMON_JSON_H_

#include <string>

namespace dilu {

/**
 * Append printf-formatted text to `*out`. The result must fit 511
 * bytes: pass names through EscapeJson and append them directly.
 */
void AppendJson(std::string* out, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/**
 * JSON string escaping for names that flow in from specs (a `name=`
 * value or a sweep axis value may contain '"' or '\').
 */
std::string EscapeJson(const std::string& s);

}  // namespace dilu

#endif  // DILU_COMMON_JSON_H_
