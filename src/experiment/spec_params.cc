#include "experiment/spec_params.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "common/spec_text.h"

namespace dilu::experiment {

namespace {

bool
FailPath(std::string* error, const std::string& path,
         const std::string& msg)
{
  if (error != nullptr) *error = path + ": " + msg;
  return false;
}

/** The token a path edits: `key=` on the index-th `directive` line. */
struct Edit {
  std::string directive;  ///< "cluster", "deploy", "workload" or "run"
  std::size_t index = 0;
  std::string key;  ///< "" edits the operand of the line's `for`
};

/**
 * Map a path to its token: a key of the `cluster` line, of the i-th
 * `deploy` / `workload` line (`duration` is the workload's `for`
 * window), or the `run for` operand.
 */
bool
Locate(const std::string& path, Edit* edit, std::string* error)
{
  const std::string head = path.substr(0, path.find('['));
  if (head == "deploy" || head == "workload") {
    const std::size_t close = path.find(']');
    std::int32_t i = -1;
    if (close == std::string::npos || close + 2 >= path.size()
        || path[close + 1] != '.'
        || !spec_text::ParseInt(path.substr(head.size() + 1,
                                            close - head.size() - 1),
                                &i)
        || i < 0) {
      return FailPath(error, path,
                      "want " + head + "[<index >= 0>].<key>");
    }
    std::string key = path.substr(close + 2);
    if (head == "workload" && key == "duration") key.clear();
    *edit = {head, static_cast<std::size_t>(i), key};
    return true;
  }
  const std::string cluster_key(spec_text::StripPrefix(path, "cluster."));
  *edit = cluster_key.empty() ? Edit{"run", 0, ""}
                              : Edit{"cluster", 0, cluster_key};
  if (!cluster_key.empty() || path == "run.for") return true;
  return FailPath(error, path,
                  "unknown parameter path (want cluster.<key>, "
                  "deploy[i].<key>, workload[i].<key>, "
                  "chaos.intensity or run.for)");
}

using Line = std::vector<std::string>;

/**
 * Splice `value` into `spec->ToText()` and re-parse, so the loader is
 * the one validator of every key, value and cross-key rule. The key's
 * token is replaced or appended — before the `for` window on a
 * workload line, whose leading `fn=` and kind are positional.
 */
bool
ApplyEdit(ExperimentSpec* spec, const std::string& path, const Edit& edit,
          const std::string& value, std::string* error)
{
  std::vector<Line> lines;
  std::size_t target = 0;  // 0 = absent: `experiment` is always line 0
  std::size_t seen = 0;
  std::istringstream in(spec->ToText());
  for (std::string text; std::getline(in, text);) {
    std::istringstream toks(text);
    lines.emplace_back(std::istream_iterator<std::string>(toks),
                       std::istream_iterator<std::string>());
    if (!lines.back().empty() && lines.back().front() == edit.directive
        && seen++ == edit.index) {
      target = lines.size() - 1;
    }
  }
  if (target == 0 && (edit.directive == "deploy"
                      || edit.directive == "workload")) {
    return FailPath(error, path,
                    "index " + std::to_string(edit.index)
                        + " out of range (base has " + std::to_string(seen)
                        + ")");
  }
  if (target == 0) {  // the optional `cluster` / `run` line
    const bool cluster = edit.directive == "cluster";
    target = cluster ? 1 : lines.size();
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(target),
                 cluster ? Line{"cluster"} : Line{"run", "for", value});
  }
  Line& line = lines[target];
  const auto window = std::find(line.begin(), line.end(), "for");
  const std::string prefix = edit.key + "=";
  const auto at =
      edit.key.empty()
          ? window + 1
          : std::find_if(line.begin() + (edit.directive == "workload" ? 3 : 1),
                         window, [&](const std::string& t) {
                           return t.compare(0, prefix.size(), prefix) == 0;
                         });
  const std::string token = edit.key.empty() ? value : prefix + value;
  if (at == window) {
    line.insert(window, token);
  } else {
    *at = token;
  }
  std::ostringstream text;
  for (const Line& l : lines) {
    for (const std::string& tok : l) text << tok << ' ';
    text << '\n';
  }
  ExperimentSpec parsed;
  std::string parse_error;
  if (!ExperimentSpec::Parse(text.str(), &parsed, &parse_error)) {
    // Drop the loader's "line N: ": it counts lines of the edited
    // text, which no file holds.
    return FailPath(error, path,
                    parse_error.substr(parse_error.find(": ") + 2));
  }
  *spec = std::move(parsed);
  return true;
}

/** Scale the embedded scenario's magnitudes (chaos::ScaleMagnitude). */
bool
ApplyChaosIntensity(ExperimentSpec* spec, const std::string& path,
                    const std::string& value, std::string* error)
{
  double intensity = 0.0;
  if (!spec_text::ParseDouble(value, &intensity) || intensity <= 0.0) {
    return FailPath(error, path, "wants a double > 0");
  }
  chaos::ScenarioSpec scaled;
  for (chaos::ScenarioEvent e : spec->chaos().events()) {
    e.magnitude = chaos::ScaleMagnitude(e.kind, e.magnitude, intensity);
    scaled.Add(e);
  }
  spec->chaos() = std::move(scaled);
  return true;
}

}  // namespace

bool
ApplyParam(ExperimentSpec* spec, const std::string& path,
           const std::string& value, std::string* error)
{
  if (path == "chaos.intensity") {
    return ApplyChaosIntensity(spec, path, value, error);
  }
  Edit edit;
  if (!Locate(path, &edit, error)) return false;
  if (edit.key == "seed" && edit.directive != "deploy") {
    return FailPath(error, path, "the sweep's seed axis owns per-run seeding");
  }
  if (edit.directive == "deploy"
      && (edit.key == "model" || edit.key == "name")) {
    return FailPath(error, path,
                    "sweeping the function identity would compare "
                    "different workloads, not policies");
  }
  // A splice must stay one token: "20 start=5s" would smuggle in a
  // second key, and a '#' would comment out the rest of the line.
  const char* kBreaks = " \t\n\v\f\r#";
  if (value.empty() || value.find_first_of(kBreaks) != std::string::npos
      || edit.key.find_first_of(kBreaks) != std::string::npos) {
    return FailPath(error, path,
                    "value must be one token (no whitespace or '#')");
  }
  return ApplyEdit(spec, path, edit, value, error);
}

}  // namespace dilu::experiment
