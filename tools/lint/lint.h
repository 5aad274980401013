/**
 * @file
 * dilu_lint: repo-specific determinism and hygiene checks.
 *
 * A token-level checker (no libclang) in the spirit of the spec_text
 * scanners: each file is reduced to a "code view" with comments and
 * string/char literals blanked out, then the rules below
 * pattern-match the view. The rules encode guarantees the test suite
 * depends on but the compiler cannot see:
 *
 *   wall-clock        no std::chrono clocks / gettimeofday outside
 *                     explicitly suppressed wall-timing code
 *   raw-rand          no rand()/srand()/random_device/drand48 — all
 *                     randomness flows through common/random.h
 *   getenv            no environment reads (exception: the golden-trace
 *                     regen knob)
 *   rng-default-seed  every Rng / mt19937 construction names its seed
 *   unordered-iter    no range-for / .begin() iteration over
 *                     unordered_map/unordered_set members (hash order
 *                     is not part of the determinism contract)
 *   check-side-effect no stream ops / mutation inside DILU_CHECK(...)
 *   log-side-effect   no mutation in DILU_LOG stream statements (they
 *                     are skipped entirely below the active level)
 *   include-guard     every header opens with a guard / pragma once
 *   event-schedule    no direct EventQueue::ScheduleAt/ScheduleAfter/
 *                     AddSource/ArmSource outside src/sim/ +
 *                     src/runtime/ (layer code posts through
 *                     Simulation::Post / RegisterSource / PostSource)
 *   std-distribution  no std::*_distribution outside
 *                     src/common/random.cc (their output is
 *                     implementation-defined)
 *   seed-zero         `seed == 0` sentinel comparisons only in the
 *                     sanctioned legacy-seed sites (exception list)
 *
 * Findings print `file:line: rule-id: message` and are suppressible in
 * place with `// dilu-lint: allow(rule-id reason)` — the reason is
 * mandatory; a bare allow() is itself a finding (`bare-allow`). A
 * suppression on its own line covers the next code line.
 *
 * The library is dependency-free (std only) so the lint binary builds
 * before — and independently of — the simulator library it polices.
 */
#ifndef DILU_TOOLS_LINT_LINT_H_
#define DILU_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

namespace dilu::lint {

/** One rule violation at a source location. */
struct Finding {
  std::string file;  ///< repo-relative path, forward slashes
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

/** Static description of one rule (for --list-rules and docs). */
struct RuleInfo {
  const char* id;
  const char* scope;  ///< human-readable path scope
  const char* description;
};

/** The rule catalogue, in reporting order. */
const std::vector<RuleInfo>& Rules();

/**
 * Two-pass linter. Feed every file to HarvestUnorderedMembers first
 * (builds the registry of unordered_map/unordered_set variable names),
 * then to LintFile. Paths must be repo-relative with forward slashes —
 * rule scoping ("src/ outside sim/ and runtime/") and exception lists
 * ("tests/trace_golden_test.cc") key on them.
 */
class Linter {
 public:
  /** Pass 1: record unordered_map/_set member & local names in `content`. */
  void HarvestUnorderedMembers(const std::string& path,
                               const std::string& content);

  /** Pass 2: append findings for `content` to `*out` (sorted per file). */
  void LintFile(const std::string& path, const std::string& content,
                std::vector<Finding>* out) const;

  /** Names harvested so far (sorted, deduplicated; for tests). */
  std::vector<std::string> UnorderedNames() const;

 private:
  std::vector<std::string> unordered_names_;
};

/** Render findings as a deterministic JSON array (schema dilu-lint/1). */
std::string ToJson(const std::vector<Finding>& findings);

/** Render one finding as `file:line: rule-id: message`. */
std::string ToText(const Finding& f);

/**
 * Lint a directory tree: walks `roots` (repo-relative, resolved under
 * `repo_root`) for .h/.cc files, skipping tests/lint_fixtures/ (its
 * files violate on purpose), tests/golden/ and build trees. Runs both
 * passes and returns findings sorted by (file, line, rule).
 * Returns false (and sets *error) when a root cannot be read.
 */
bool LintTree(const std::string& repo_root,
              const std::vector<std::string>& roots,
              std::vector<Finding>* findings, std::string* error);

}  // namespace dilu::lint

#endif  // DILU_TOOLS_LINT_LINT_H_
