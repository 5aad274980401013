#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace dilu::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule catalogue
// ---------------------------------------------------------------------------

const char* kEverywhere = "src/ tools/ bench/ examples/ tests/";

const std::vector<RuleInfo> kRules = {
    {"wall-clock", kEverywhere,
     "std::chrono clocks / gettimeofday read wall time; simulations must "
     "derive every timestamp from the event queue"},
    {"raw-rand", kEverywhere,
     "rand()/srand()/random_device bypass the seeded Rng; all randomness "
     "flows through common/random.h"},
    {"getenv", kEverywhere,
     "environment reads make runs machine-dependent (exception: the "
     "golden-trace regen knob in tests/trace_golden_test.cc)"},
    {"rng-default-seed", kEverywhere,
     "Rng/mt19937 constructed without an explicit seed argument hides the "
     "stream's identity; name the seed at the construction site"},
    {"unordered-iter", kEverywhere,
     "iterating an unordered_map/unordered_set visits hash order, which is "
     "not part of the determinism contract; point-query or drain through "
     "a sort"},
    {"check-side-effect", kEverywhere,
     "DILU_CHECK conditions must be pure: no streams, mutation or "
     "assignment inside the checked expression"},
    {"log-side-effect", kEverywhere,
     "DILU_LOG stream operands are skipped below the active level, so "
     "mutation inside a log statement changes behavior with verbosity"},
    {"include-guard", "*.h",
     "headers need #pragma once or an #ifndef guard"},
    {"event-schedule", "src/ except src/sim/ and src/runtime/",
     "direct EventQueue::ScheduleAt/ScheduleAfter/AddSource/ArmSource "
     "outside the sim core; layer code schedules through "
     "Simulation::Post (recurring sources: RegisterSource/PostSource) "
     "on its own shard's clock"},
    {"std-distribution", "everywhere except src/common/random.cc",
     "std::*_distribution output is implementation-defined (it differs "
     "between standard libraries); draw through dilu::Rng, whose "
     "src/common/random.cc is the one place that may use them"},
    {"seed-zero", "everywhere except the sanctioned legacy-seed sites",
     "`seed == 0` sentinel comparisons (0 = legacy per-suite seeds / "
     "spec-owned seed) are only sanctioned in "
     "src/experiment/experiment.cc and tools/dilu_run.cc; elsewhere "
     "derive the stream from the cluster seed"},
    {"bare-allow", kEverywhere,
     "dilu-lint: allow(...) needs a known rule-id and a reason"},
};

// The one file that may draw through std::*_distribution.
const char* kDistributionHome = "src/common/random.cc";

// The standard library's distributions, as `<name>_distribution`.
const char* kStdDistributions[] = {
    "uniform_int", "uniform_real", "bernoulli", "binomial",
    "negative_binomial", "geometric", "poisson", "exponential", "gamma",
    "weibull", "extreme_value", "normal", "lognormal", "chi_squared",
    "cauchy", "fisher_f", "student_t", "discrete", "piecewise_constant",
    "piecewise_linear"};

// Files exempt from `getenv` (the golden regen knobs).
const char* kGetenvExceptions[] = {"tests/trace_golden_test.cc",
                                   "tests/overload_test.cc",
                                   "tests/fabric_test.cc",
                                   "tests/sweep_test.cc"};

// Files where `seed == 0` sentinel logic is sanctioned and documented
// (docs/STATIC_ANALYSIS.md "seed 0 semantics").
const char* kSeedZeroExceptions[] = {
    "src/experiment/experiment.cc",
    "tools/dilu_run.cc",
};

bool
StartsWith(const std::string& s, const std::string& prefix)
{
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool
EndsWith(const std::string& s, const std::string& suffix)
{
  return s.size() >= suffix.size()
         && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

template <std::size_t N>
bool
InList(const std::string& path, const char* (&list)[N])
{
  for (const char* e : list) {
    if (path == e) return true;
  }
  return false;
}

bool
IsIdentChar(char c)
{
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Code view: the file with comments and string/char literals blanked so
// pattern matching cannot trip on prose. Newlines survive, offsets are
// stable, and the raw text stays available for suppression parsing.
// ---------------------------------------------------------------------------

std::string
BuildCodeView(const std::string& src)
{
  std::string out = src;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

/**
 * The complement of the code view for suppression parsing: only the
 * text of `//` line comments survives; code, strings and block comments
 * are blanked. Suppressions must be written as line comments — the tag
 * mentioned in block-comment prose or string literals is not one.
 */
std::string
BuildLineCommentView(const std::string& src)
{
  std::string out(src.size(), ' ');
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char n = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') out[i] = '\n';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLineComment;
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          ++i;
          if (i < src.size() && src[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = c;
        }
        break;
      case St::kBlockComment:
        if (c == '*' && n == '/') {
          ++i;
          st = St::kCode;
        }
        break;
      case St::kString:
        if (c == '\\' && n != '\0') {
          ++i;
          if (i < src.size() && src[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\' && n != '\0') {
          ++i;
          if (i < src.size() && src[i] == '\n') out[i] = '\n';
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
    }
  }
  return out;
}

/** 1-based line number of byte offset `pos`. */
class LineIndex {
 public:
  explicit LineIndex(const std::string& src)
  {
    starts_.push_back(0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (src[i] == '\n') starts_.push_back(i + 1);
    }
  }

  int LineOf(std::size_t pos) const
  {
    auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
    return static_cast<int>(it - starts_.begin());
  }

  int line_count() const { return static_cast<int>(starts_.size()); }

 private:
  std::vector<std::size_t> starts_;
};

// ---------------------------------------------------------------------------
// Suppression comments (the allow tag; syntax in lint.h's header)
// ---------------------------------------------------------------------------

struct Suppressions {
  /** line (1-based) -> rule-ids allowed on that line. */
  std::vector<std::vector<std::string>> by_line;
  /** true when the line is nothing but a suppression comment. */
  std::vector<bool> standalone;
  std::vector<Finding> malformed;  ///< bare-allow findings
};

bool
KnownRule(const std::string& id)
{
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

Suppressions
ParseSuppressions(const std::string& path, const std::string& raw,
                  const std::string& code)
{
  Suppressions sup;
  std::istringstream raw_in(BuildLineCommentView(raw));
  std::istringstream code_in(code);
  std::string raw_line;
  std::string code_line;
  int line = 0;
  const std::string kTag = "dilu-lint: allow(";
  while (std::getline(raw_in, raw_line)) {
    std::getline(code_in, code_line);
    ++line;
    sup.by_line.emplace_back();
    sup.standalone.push_back(false);
    std::size_t at = raw_line.find(kTag);
    bool any = false;
    while (at != std::string::npos) {
      const std::size_t open = at + kTag.size();
      const std::size_t close = raw_line.find(')', open);
      if (close == std::string::npos) {
        sup.malformed.push_back(
            {path, line, "bare-allow", "unterminated dilu-lint allow()"});
        break;
      }
      const std::string body = raw_line.substr(open, close - open);
      const std::size_t sp = body.find(' ');
      const std::string id = body.substr(0, sp);
      const std::string reason =
          sp == std::string::npos ? "" : body.substr(sp + 1);
      if (id.empty() || !KnownRule(id)) {
        sup.malformed.push_back({path, line, "bare-allow",
                                 "unknown rule-id '" + id + "' in allow()"});
      } else if (reason.find_first_not_of(' ') == std::string::npos) {
        sup.malformed.push_back(
            {path, line, "bare-allow",
             "allow(" + id + ") needs a reason after the rule-id"});
      } else {
        sup.by_line.back().push_back(id);
        any = true;
      }
      at = raw_line.find(kTag, close);
    }
    if (any
        && code_line.find_first_not_of(" \t\r") == std::string::npos) {
      sup.standalone.back() = true;
    }
  }
  return sup;
}

/** True when `rule` is allowed at `line` (same line, or by the block of
 *  standalone suppression comments immediately above). */
bool
Allowed(const Suppressions& sup, int line, const std::string& rule)
{
  const auto has = [&](int l) {
    const auto& ids = sup.by_line[static_cast<std::size_t>(l - 1)];
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
  };
  if (line >= 1 && line <= static_cast<int>(sup.by_line.size()) && has(line))
    return true;
  for (int l = line - 1;
       l >= 1 && sup.standalone[static_cast<std::size_t>(l - 1)]; --l) {
    if (has(l)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token helpers over the code view
// ---------------------------------------------------------------------------

/** Offset of the next word-boundary occurrence of `word` at/after `from`. */
std::size_t
FindWord(const std::string& code, const std::string& word, std::size_t from)
{
  std::size_t at = code.find(word, from);
  while (at != std::string::npos) {
    const bool left_ok = at == 0 || !IsIdentChar(code[at - 1]);
    const std::size_t end = at + word.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return at;
    at = code.find(word, at + 1);
  }
  return std::string::npos;
}

std::size_t
SkipSpace(const std::string& code, std::size_t at)
{
  while (at < code.size()
         && std::isspace(static_cast<unsigned char>(code[at])) != 0) {
    ++at;
  }
  return at;
}

/** Offset just past the `)` matching the `(` at `open` (npos if none). */
std::size_t
MatchParen(const std::string& code, std::size_t open)
{
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

std::string
Trim(const std::string& s)
{
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/** Trailing identifier of an expression ("" when it ends elsewhere). */
std::string
TrailingIdent(const std::string& expr)
{
  if (expr.empty() || !IsIdentChar(expr.back())) return "";
  std::size_t b = expr.size();
  while (b > 0 && IsIdentChar(expr[b - 1])) --b;
  std::string id = expr.substr(b);
  if (!id.empty() && std::isdigit(static_cast<unsigned char>(id[0])) != 0)
    return "";
  return id;
}

/** True when `=` at `i` is an assignment (incl. compound), not ==/!=/<=/>=
 *  or a lambda default-capture. */
bool
IsAssignment(const std::string& s, std::size_t i)
{
  if (i + 1 < s.size() && s[i + 1] == '=') return false;
  if (i > 0) {
    const char p = s[i - 1];
    if (p == '=' || p == '!' || p == '<' || p == '>' || p == '[') return false;
  }
  return true;
}

/** True when the line containing `at` is a preprocessor directive (the
 *  DILU_LOG/DILU_CHECK definitions in logging.h are not use sites). */
bool
OnPreprocessorLine(const std::string& code, std::size_t at)
{
  std::size_t b = code.rfind('\n', at);
  b = b == std::string::npos ? 0 : b + 1;
  b = SkipSpace(code, b);
  return b < code.size() && code[b] == '#';
}

/** First mutation (++ / -- / assignment) in `s`; npos when pure. */
std::size_t
FindMutation(const std::string& s)
{
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if ((c == '+' || c == '-') && i + 1 < s.size() && s[i + 1] == c)
      return i;
    if (c == '=' && IsAssignment(s, i)) return i;
  }
  return std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: unordered-container name registry
// ---------------------------------------------------------------------------

void
Linter::HarvestUnorderedMembers(const std::string& path,
                                const std::string& content)
{
  (void)path;
  const std::string code = BuildCodeView(content);
  for (const char* type : {"unordered_map", "unordered_set"}) {
    std::size_t at = FindWord(code, type, 0);
    while (at != std::string::npos) {
      std::size_t i = SkipSpace(code, at + std::string(type).size());
      if (i < code.size() && code[i] == '<') {
        // Skip the template argument list (angle-depth aware).
        int depth = 0;
        for (; i < code.size(); ++i) {
          if (code[i] == '<') ++depth;
          if (code[i] == '>' && --depth == 0) {
            ++i;
            break;
          }
        }
        // Past optional ref/pointer decoration to the declared name.
        i = SkipSpace(code, i);
        while (i < code.size() && (code[i] == '&' || code[i] == '*'))
          i = SkipSpace(code, i + 1);
        std::size_t b = i;
        while (i < code.size() && IsIdentChar(code[i])) ++i;
        if (i > b) {
          const std::size_t after = SkipSpace(code, i);
          const char nxt = after < code.size() ? code[after] : '\0';
          // Declaration forms: `T name;`  `T name{...};`  `T name = ...`
          // and parameters `T& name)` / `T& name,`. A following `(` is a
          // function returning the container — not a variable.
          if (nxt == ';' || nxt == '{' || nxt == '=' || nxt == ')'
              || nxt == ',') {
            unordered_names_.push_back(code.substr(b, i - b));
          }
        }
      }
      at = FindWord(code, type, at + 1);
    }
  }
  std::sort(unordered_names_.begin(), unordered_names_.end());
  unordered_names_.erase(
      std::unique(unordered_names_.begin(), unordered_names_.end()),
      unordered_names_.end());
}

std::vector<std::string>
Linter::UnorderedNames() const
{
  return unordered_names_;
}

// ---------------------------------------------------------------------------
// Pass 2: rules
// ---------------------------------------------------------------------------

void
Linter::LintFile(const std::string& path, const std::string& content,
                 std::vector<Finding>* out) const
{
  const std::string code = BuildCodeView(content);
  const LineIndex lines(content);
  const Suppressions sup = ParseSuppressions(path, content, code);

  std::vector<Finding> found;
  const auto emit = [&](std::size_t pos, const char* rule,
                        const std::string& msg) {
    found.push_back({path, lines.LineOf(pos), rule, msg});
  };

  // --- wall-clock -----------------------------------------------------
  for (const char* w :
       {"system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get"}) {
    for (std::size_t at = FindWord(code, w, 0); at != std::string::npos;
         at = FindWord(code, w, at + 1)) {
      emit(at, "wall-clock",
           std::string(w) + " reads wall time; use simulation time");
    }
  }

  // --- raw-rand -------------------------------------------------------
  for (const char* w : {"rand", "srand", "rand_r", "drand48"}) {
    for (std::size_t at = FindWord(code, w, 0); at != std::string::npos;
         at = FindWord(code, w, at + 1)) {
      const std::size_t after = SkipSpace(code, at + std::string(w).size());
      if (after < code.size() && code[after] == '(') {
        emit(at, "raw-rand",
             std::string(w) + "() bypasses the seeded Rng (common/random.h)");
      }
    }
  }
  for (const char* w : {"random_device", "random_shuffle"}) {
    for (std::size_t at = FindWord(code, w, 0); at != std::string::npos;
         at = FindWord(code, w, at + 1)) {
      emit(at, "raw-rand",
           std::string(w) + " is nondeterministic; use the seeded Rng");
    }
  }

  // --- getenv ---------------------------------------------------------
  if (!InList(path, kGetenvExceptions)) {
    for (std::size_t at = FindWord(code, "getenv", 0);
         at != std::string::npos; at = FindWord(code, "getenv", at + 1)) {
      emit(at, "getenv",
           "environment reads are banned outside the golden regen knob");
    }
  }

  // --- rng-default-seed -----------------------------------------------
  for (const char* t : {"Rng", "mt19937", "mt19937_64", "minstd_rand",
                        "default_random_engine"}) {
    for (std::size_t at = FindWord(code, t, 0); at != std::string::npos;
         at = FindWord(code, t, at + 1)) {
      std::size_t i = SkipSpace(code, at + std::string(t).size());
      if (i < code.size() && code[i] == '(') {
        // Temporary: `Rng()` with nothing but whitespace inside.
        const std::size_t close = MatchParen(code, i);
        if (close != std::string::npos
            && Trim(code.substr(i + 1, close - i - 2)).empty()) {
          emit(at, "rng-default-seed",
               std::string(t) + "() temporary without an explicit seed");
        }
        continue;
      }
      // Declaration: `Rng name;` or `Rng name{};`. Trailing-underscore
      // names are members — those are constructed in ctor init lists
      // (where the seed is named), which a token scanner cannot see.
      std::size_t b = i;
      while (i < code.size() && IsIdentChar(code[i])) ++i;
      if (i == b || code[i - 1] == '_') continue;
      const std::size_t after = SkipSpace(code, i);
      if (after < code.size() && code[after] == ';') {
        emit(at, "rng-default-seed",
             std::string(t) + " " + code.substr(b, i - b)
                 + " default-constructed; pass the seed explicitly");
      } else if (after + 1 < code.size() && code[after] == '{'
                 && code[SkipSpace(code, after + 1)] == '}') {
        emit(at, "rng-default-seed",
             std::string(t) + " " + code.substr(b, i - b)
                 + "{} without an explicit seed");
      }
    }
  }

  // --- unordered-iter -------------------------------------------------
  const auto is_unordered = [&](const std::string& name) {
    return std::binary_search(unordered_names_.begin(),
                              unordered_names_.end(), name);
  };
  // Taint: `it` assigned from `<unordered>.find(...)` — iterating
  // `it->second` walks a nested unordered container in hash order.
  std::vector<std::string> tainted;
  for (std::size_t at = code.find(".find"); at != std::string::npos;
       at = code.find(".find", at + 1)) {
    const std::string owner = TrailingIdent(code.substr(0, at));
    if (owner.empty() || !is_unordered(owner)) continue;
    // Only nested-container owners taint; a flat map's iterator holds a
    // scalar mapped type. Token level cannot see the mapped type, so we
    // taint conservatively whenever the owner is in the registry and the
    // `->second` is range-iterated (flat maps never are).
    std::size_t eq = code.rfind('=', at);
    if (eq == std::string::npos || at - eq > 64) continue;
    const std::string lhs = TrailingIdent(Trim(code.substr(0, eq)));
    if (!lhs.empty()) tainted.push_back(lhs);
  }
  std::sort(tainted.begin(), tainted.end());
  tainted.erase(std::unique(tainted.begin(), tainted.end()), tainted.end());

  for (std::size_t at = FindWord(code, "for", 0); at != std::string::npos;
       at = FindWord(code, "for", at + 1)) {
    const std::size_t open = SkipSpace(code, at + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = MatchParen(code, open);
    if (close == std::string::npos) continue;
    const std::string head = code.substr(open + 1, close - open - 2);
    // Top-level `:` (not `::`) marks a range-for.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':')
            || (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = Trim(head.substr(colon + 1));
    const std::string last = TrailingIdent(range);
    if (!last.empty() && is_unordered(last)) {
      emit(open, "unordered-iter",
           "range-for over unordered container '" + last
               + "' visits hash order; point-query or drain through a sort");
      continue;
    }
    if (EndsWith(range, "->second") || EndsWith(range, ".second")) {
      const std::string base = TrailingIdent(
          range.substr(0, range.size() - (EndsWith(range, "->second")
                                              ? 8 : 7)));
      if (!base.empty()
          && std::binary_search(tainted.begin(), tainted.end(), base)) {
        emit(open, "unordered-iter",
             "range-for over '" + base
                 + "->second' iterates a nested unordered container");
      }
    }
  }
  for (const char* b : {".begin", ".cbegin", ".rbegin"}) {
    for (std::size_t at = code.find(b); at != std::string::npos;
         at = code.find(b, at + 1)) {
      const std::size_t after = at + std::string(b).size();
      if (after >= code.size() || code[after] != '(') continue;
      const std::string owner = TrailingIdent(code.substr(0, at));
      if (!owner.empty() && is_unordered(owner)) {
        emit(at, "unordered-iter",
             "iterator walk of unordered container '" + owner
                 + "' visits hash order");
      }
    }
  }

  // --- check-side-effect ----------------------------------------------
  for (std::size_t at = FindWord(code, "DILU_CHECK", 0);
       at != std::string::npos; at = FindWord(code, "DILU_CHECK", at + 1)) {
    if (OnPreprocessorLine(code, at)) continue;
    const std::size_t open = SkipSpace(code, at + 10);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = MatchParen(code, open);
    if (close == std::string::npos) continue;
    const std::string arg = code.substr(open + 1, close - open - 2);
    if (arg.find("<<") != std::string::npos) {
      emit(at, "check-side-effect",
           "stream expression inside DILU_CHECK; check a pure condition");
    } else if (FindMutation(arg) != std::string::npos) {
      emit(at, "check-side-effect",
           "mutation inside DILU_CHECK; hoist the side effect out of the "
           "checked expression");
    }
  }

  // --- log-side-effect ------------------------------------------------
  for (const char* m : {"DILU_DEBUG", "DILU_INFO", "DILU_WARN",
                        "DILU_ERROR", "DILU_LOG"}) {
    for (std::size_t at = FindWord(code, m, 0); at != std::string::npos;
         at = FindWord(code, m, at + 1)) {
      if (OnPreprocessorLine(code, at)) continue;
      std::size_t i = at + std::string(m).size();
      // Statement runs to the first `;` at paren depth 0.
      int depth = 0;
      std::size_t end = std::string::npos;
      for (std::size_t j = i; j < code.size(); ++j) {
        if (code[j] == '(') ++depth;
        if (code[j] == ')') --depth;
        if (code[j] == ';' && depth <= 0) {
          end = j;
          break;
        }
      }
      if (end == std::string::npos) continue;
      std::string stmt = code.substr(i, end - i);
      if (m == std::string("DILU_LOG")) {
        // Skip the level argument `(kInfo)` and any macro definition.
        const std::size_t p = stmt.find(')');
        if (p == std::string::npos) continue;
        stmt = stmt.substr(p + 1);
      }
      if (stmt.find("<<") == std::string::npos) continue;  // not a stream
      if (FindMutation(stmt) != std::string::npos) {
        emit(at, "log-side-effect",
             "mutation in a log statement only happens when the level is "
             "enabled; hoist it out");
      }
    }
  }

  // --- include-guard --------------------------------------------------
  if (EndsWith(path, ".h")) {
    const bool pragma = code.find("#pragma once") != std::string::npos;
    const std::size_t ifndef = code.find("#ifndef");
    const bool guard = ifndef != std::string::npos
                       && code.find("#define", ifndef) != std::string::npos;
    if (!pragma && !guard) {
      found.push_back({path, 1, "include-guard",
                       "header has neither #pragma once nor an #ifndef "
                       "include guard"});
    }
  }

  // --- event-schedule -------------------------------------------------
  // Raw queue scheduling lives only in src/sim/ and src/runtime/.
  // Layer code posts through Simulation::Post / RegisterSource /
  // PostSource, which are always its own shard's clock; see
  // docs/PARALLELISM.md.
  if (StartsWith(path, "src/") && !StartsWith(path, "src/sim/")
      && !StartsWith(path, "src/runtime/")) {
    struct RawCall {
      const char* name;
      const char* wrapper;
    };
    for (const RawCall& w : {RawCall{"ScheduleAt", "Simulation::Post"},
                             RawCall{"ScheduleAfter", "Simulation::Post"},
                             RawCall{"AddSource",
                                     "Simulation::RegisterSource"},
                             RawCall{"ArmSource",
                                     "Simulation::PostSource"}}) {
      const std::string name = w.name;
      for (std::size_t at = FindWord(code, name, 0);
           at != std::string::npos; at = FindWord(code, name, at + 1)) {
        const std::size_t after = SkipSpace(code, at + name.size());
        if (after < code.size() && code[after] == '(') {
          emit(at, "event-schedule",
               name + " outside sim/+runtime/: use " + w.wrapper);
        }
      }
    }
  }

  // --- std-distribution -----------------------------------------------
  if (path != kDistributionHome) {
    const std::string suffix = "_distribution";
    for (std::size_t at = code.find(suffix); at != std::string::npos;
         at = code.find(suffix, at + 1)) {
      const std::size_t end = at + suffix.size();
      if (end < code.size() && IsIdentChar(code[end])) continue;
      std::size_t b = at;
      while (b > 0 && IsIdentChar(code[b - 1])) --b;
      const std::string kind = code.substr(b, at - b);
      if (!InList(kind, kStdDistributions)) continue;
      emit(b, "std-distribution",
           kind + suffix + " output is implementation-defined; draw "
           "through dilu::Rng");
    }
  }

  // --- seed-zero ------------------------------------------------------
  if (!InList(path, kSeedZeroExceptions)) {
    for (std::size_t at = code.find('='); at != std::string::npos;
         at = code.find('=', at + 1)) {
      // `seed == 0` / `seed != 0` (a seed-ish identifier compared with
      // the legacy-seed sentinel).
      std::size_t lhs_end = 0;
      std::size_t rhs_b = 0;
      const char prev = at > 0 ? code[at - 1] : '\0';
      if (at + 1 < code.size() && code[at + 1] == '=') {
        if (prev == '!' || prev == '<' || prev == '>' || prev == '=')
          continue;
        lhs_end = at;  // `==`
        rhs_b = at + 2;
      } else if (prev == '!') {
        lhs_end = at - 1;  // `!=`
        rhs_b = at + 1;
      } else {
        continue;
      }
      const std::string lhs = TrailingIdent(Trim(code.substr(0, lhs_end)));
      rhs_b = SkipSpace(code, rhs_b);
      const bool rhs_zero = rhs_b < code.size() && code[rhs_b] == '0'
                            && (rhs_b + 1 >= code.size()
                                || !IsIdentChar(code[rhs_b + 1]));
      std::string seedish = lhs;
      std::transform(seedish.begin(), seedish.end(), seedish.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                     });
      if (rhs_zero && seedish.find("seed") != std::string::npos) {
        emit(at, "seed-zero",
             "`" + lhs + "` compared with the 0 sentinel outside the "
             "sanctioned legacy-seed sites (see docs/STATIC_ANALYSIS.md)");
      }
    }
  }

  // --- apply suppressions, then append ---------------------------------
  for (const Finding& f : found) {
    if (!Allowed(sup, f.line, f.rule)) out->push_back(f);
  }
  for (const Finding& f : sup.malformed) out->push_back(f);

  std::sort(out->begin(), out->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
}

// ---------------------------------------------------------------------------
// Catalogue, rendering, tree walk
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>&
Rules()
{
  return kRules;
}

std::string
ToText(const Finding& f)
{
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": "
         + f.message;
}

namespace {

std::string
JsonEscape(const std::string& s)
{
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string
ToJson(const std::vector<Finding>& findings)
{
  std::string out = "{\n  \"schema\": \"dilu-lint/1\",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"" + JsonEscape(f.file) + "\", \"line\": "
           + std::to_string(f.line) + ", \"rule\": \"" + JsonEscape(f.rule)
           + "\", \"message\": \"" + JsonEscape(f.message) + "\"}";
  }
  out += findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"count\": " + std::to_string(findings.size()) + "\n}\n";
  return out;
}

bool
LintTree(const std::string& repo_root, const std::vector<std::string>& roots,
         std::vector<Finding>* findings, std::string* error)
{
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      if (error != nullptr) *error = "cannot read " + base.string();
      return false;
    }
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string rel =
          fs::relative(it->path(), repo_root, ec).generic_string();
      // Fixture files violate on purpose; golden/ and build trees are
      // not code.
      if (rel.find("lint_fixtures/") != std::string::npos) continue;
      if (rel.find("golden/") != std::string::npos) continue;
      if (rel.find("build") == 0 || rel.find("/build") != std::string::npos)
        continue;
      if (EndsWith(rel, ".h") || EndsWith(rel, ".cc")) files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  Linter linter;
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(repo_root) / rel, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + rel;
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    contents.emplace_back(rel, text.str());
  }
  for (const auto& [rel, text] : contents) {
    linter.HarvestUnorderedMembers(rel, text);
  }
  for (const auto& [rel, text] : contents) {
    linter.LintFile(rel, text, findings);
  }
  return true;
}

}  // namespace dilu::lint
