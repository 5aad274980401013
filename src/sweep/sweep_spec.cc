#include "sweep/sweep_spec.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/spec_text.h"
#include "sweep/sweep_report.h"

namespace dilu::sweep {

namespace {

using spec_text::Fail;
using spec_text::FormatDouble;
using spec_text::ParseDouble;
using spec_text::ParseInt;
using spec_text::ParseUint64;
using spec_text::StripPrefix;
using spec_text::Tokens;

bool
ParseSeedsLine(Tokens& toks, int line_no, SweepSpec* spec, std::string* error)
{
  std::string_view tok;
  std::int32_t n = 0;
  if (!toks.Next(&tok) || !ParseInt(tok, &n) || n < 1) {
    return Fail(error, line_no, "seeds wants a count >= 1");
  }
  std::uint64_t base = 1;
  if (toks.Next(&tok)) {
    if (!ParseUint64(StripPrefix(tok, "base="), &base) || base < 1) {
      return Fail(error, line_no,
                  "seeds takes base=<seed >= 1> (0 would mean \"no "
                  "override\" to the experiment driver)");
    }
    if (!spec_text::AtEnd(toks, line_no, error)) return false;
  }
  // Run k is seeded base + k; a wrap to 0 would read as "no override".
  if (base > std::numeric_limits<std::uint64_t>::max()
                 - static_cast<std::uint64_t>(n - 1)) {
    return Fail(error, line_no,
                "seeds base=" + std::to_string(base) + " + "
                    + std::to_string(n - 1) + " overflows a uint64 seed");
  }
  spec->Seeds(n, base);
  return true;
}

bool
ParseAxisLine(Tokens& toks, int line_no, SweepSpec* spec, std::string* error)
{
  std::string_view tok;
  if (!toks.Next(&tok)) {
    return Fail(error, line_no, "axis needs a parameter path");
  }
  const std::string path(tok);
  for (const SweepAxis& a : spec->axes()) {
    if (a.path == path) {
      return Fail(error, line_no, "duplicate axis '" + path + "'");
    }
  }
  std::vector<std::string> values;
  while (toks.Next(&tok)) values.emplace_back(tok);
  if (values.empty()) {
    return Fail(error, line_no,
                "axis '" + path + "' needs at least one value");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = i + 1; j < values.size(); ++j) {
      if (values[i] == values[j]) {
        return Fail(error, line_no,
                    "axis '" + path + "' repeats value '" + values[i]
                        + "'");
      }
    }
  }
  spec->Axis(path, std::move(values));
  return true;
}

bool
ParseVariantLine(Tokens& toks, int line_no, SweepSpec* spec,
                 std::string* error)
{
  std::string_view tok;
  if (!toks.Next(&tok) || tok.find('=') != std::string_view::npos) {
    return Fail(error, line_no,
                "expected 'variant <name> <path>=<value> ...'");
  }
  const std::string name(tok);
  for (const SweepVariant& v : spec->variants()) {
    if (v.name == name) {
      return Fail(error, line_no, "duplicate variant '" + name + "'");
    }
  }
  std::vector<std::pair<std::string, std::string>> params;
  while (toks.Next(&tok)) {
    const std::size_t eq = tok.find('=');
    if (eq == 0 || eq == std::string_view::npos || eq + 1 == tok.size()) {
      return Fail(error, line_no,
                  "variant '" + name + "' wants <path>=<value>, got '"
                      + std::string(tok) + "'");
    }
    std::string path(tok.substr(0, eq));
    for (const auto& p : params) {
      if (p.first == path) {
        return Fail(error, line_no,
                    "variant '" + name + "' sets '" + path + "' twice");
      }
    }
    params.emplace_back(std::move(path), tok.substr(eq + 1));
  }
  if (params.empty()) {
    return Fail(error, line_no,
                "variant '" + name + "' needs a <path>=<value>");
  }
  spec->Variant(name, std::move(params));
  return true;
}

bool
ParseRequireLine(Tokens& toks, int line_no, SweepSpec* spec,
                 std::string* error)
{
  std::string_view tok;
  std::string_view op_tok;
  std::string_view value_tok;
  if (!toks.Next(&tok) || !toks.Next(&op_tok) || !toks.Next(&value_tok)) {
    return Fail(error, line_no,
                "expected 'require <metric> <=|>= <value>[x baseline]'");
  }
  std::int32_t fn = -1;
  const std::size_t open = tok.find('[');
  if (open != std::string_view::npos) {
    const std::string_view sel = tok.substr(open);
    if (sel.size() < 6 || sel.substr(0, 4) != "[fn=" || sel.back() != ']'
        || !ParseInt(sel.substr(4, sel.size() - 5), &fn) || fn < 0) {
      return Fail(error, line_no,
                  "a per-function selector reads <metric>[fn=<index >= "
                  "0>]");
    }
    tok = tok.substr(0, open);
  }
  const std::string metric(tok);
  if (!IsSweepMetric(metric)) {
    return Fail(error, line_no,
                "unknown metric '" + metric
                    + "' (dilu_sweep --metrics lists the registry)");
  }
  if (fn >= 0 && !IsFunctionMetric(metric)) {
    return Fail(error, line_no,
                "metric '" + metric
                    + "' has no per-function value (dilu_sweep --metrics "
                      "marks the ones [fn=i] takes)");
  }
  ThresholdOp op = ThresholdOp::kLe;
  if (op_tok == "<=") {
    op = ThresholdOp::kLe;
  } else if (op_tok == ">=") {
    op = ThresholdOp::kGe;
  } else {
    return Fail(error, line_no,
                "require wants <= or >=, got '" + std::string(op_tok) + "'");
  }
  bool relative = false;
  if (!value_tok.empty() && value_tok.back() == 'x') {
    relative = true;
    value_tok.remove_suffix(1);
    std::string_view baseline;
    if (!toks.Next(&baseline) || baseline != "baseline") {
      return Fail(error, line_no,
                  "a relative bound reads '<value>x baseline'");
    }
  }
  double value = 0.0;
  if (!ParseDouble(value_tok, &value) || value < 0.0) {
    return Fail(error, line_no, "require wants a bound >= 0");
  }
  if (!spec_text::AtEnd(toks, line_no, error)) return false;
  spec->Require(metric, op, value, relative, fn);
  return true;
}

}  // namespace

SweepSpec&
SweepSpec::Base(std::string base)
{
  base_ = std::move(base);
  return *this;
}

SweepSpec&
SweepSpec::Seeds(int n, std::uint64_t seed_base)
{
  seeds_ = n < 1 ? 1 : n;
  seed_base_ = seed_base < 1 ? 1 : seed_base;
  return *this;
}

SweepSpec&
SweepSpec::Axis(std::string path, std::vector<std::string> values)
{
  axes_.push_back(SweepAxis{std::move(path), std::move(values)});
  return *this;
}

SweepSpec&
SweepSpec::Variant(std::string name,
                   std::vector<std::pair<std::string, std::string>> params)
{
  variants_.push_back(SweepVariant{std::move(name), std::move(params)});
  return *this;
}

SweepSpec&
SweepSpec::Require(std::string metric, ThresholdOp op, double value,
                   bool relative, int fn)
{
  thresholds_.push_back(
      Threshold{std::move(metric), op, value, relative, fn});
  return *this;
}

std::string
Threshold::Subject() const
{
  return fn < 0 ? metric : metric + "[fn=" + std::to_string(fn) + "]";
}

std::vector<SweepAxis>
SweepSpec::GridAxes() const
{
  std::vector<SweepAxis> grid;
  if (!variants_.empty()) {
    SweepAxis& names = grid.emplace_back();
    names.path = "variant";
    for (const SweepVariant& v : variants_) names.values.push_back(v.name);
  }
  grid.insert(grid.end(), axes_.begin(), axes_.end());
  return grid;
}

std::size_t
SweepSpec::Cells() const
{
  std::size_t cells = std::max<std::size_t>(1, variants_.size());
  for (const SweepAxis& a : axes_) cells *= a.values.size();
  return cells;
}

std::string
SweepSpec::ToText() const
{
  std::ostringstream out;
  out << "sweep " << name_ << '\n';
  if (!base_.empty()) out << "base " << base_ << '\n';
  out << "seeds " << seeds_;
  if (seed_base_ != 1) out << " base=" << seed_base_;
  out << '\n';
  for (const SweepVariant& v : variants_) {
    out << "variant " << v.name;
    for (const auto& [path, value] : v.params) {
      out << ' ' << path << '=' << value;
    }
    out << '\n';
  }
  for (const SweepAxis& a : axes_) {
    out << "axis " << a.path;
    for (const std::string& v : a.values) out << ' ' << v;
    out << '\n';
  }
  for (const Threshold& t : thresholds_) {
    out << "require " << t.Subject() << ' '
        << (t.op == ThresholdOp::kLe ? "<=" : ">=") << ' '
        << FormatDouble(t.value);
    if (t.relative) out << "x baseline";
    out << '\n';
  }
  return out.str();
}

bool
SweepSpec::Parse(const std::string& text, SweepSpec* out,
                 std::string* error)
{
  SweepSpec spec;
  bool have_name = false;
  bool have_base = false;
  bool have_seeds = false;
  std::vector<int> variant_lines;  // for end-of-parse validation
  std::vector<int> require_lines;
  int line_no = 0;
  const bool ok = spec_text::ForEachLine(
      text, &line_no, [&](int line, Tokens& toks) {
        std::string_view directive;
        toks.Next(&directive);
        if (directive == "sweep") {
          if (have_name) return Fail(error, line, "duplicate sweep line");
          have_name = true;
          return spec_text::OneWord(toks, line, "sweep needs a name",
                                    &spec.name_, error);
        }
        if (directive == "base") {
          if (have_base) return Fail(error, line, "duplicate base line");
          have_base = true;
          return spec_text::OneWord(toks, line,
                                    "base needs an experiment name",
                                    &spec.base_, error);
        }
        if (directive == "seeds") {
          if (have_seeds) return Fail(error, line, "duplicate seeds line");
          have_seeds = true;
          return ParseSeedsLine(toks, line, &spec, error);
        }
        if (directive == "variant") {
          variant_lines.push_back(line);
          return ParseVariantLine(toks, line, &spec, error);
        }
        if (directive == "axis") {
          return ParseAxisLine(toks, line, &spec, error);
        }
        if (directive == "require") {
          require_lines.push_back(line);
          return ParseRequireLine(toks, line, &spec, error);
        }
        return Fail(error, line,
                    "unknown directive '" + std::string(directive)
                        + "' (want sweep/base/seeds/variant/axis/"
                          "require)");
      });
  if (!ok) return false;
  if (!have_name) {
    return Fail(error, line_no, "a sweep needs a 'sweep <name>' line");
  }
  if (!have_base) {
    return Fail(error, line_no, "a sweep needs a 'base <experiment>' line");
  }
  // A variant and an axis setting one knob would race for its value.
  for (std::size_t v = 0; v < spec.variants_.size(); ++v) {
    for (const auto& p : spec.variants_[v].params) {
      for (const SweepAxis& a : spec.axes_) {
        if (a.path == p.first) {
          return Fail(error, variant_lines[v],
                      "variant '" + spec.variants_[v].name + "' sets '"
                          + p.first + "', which an axis sweeps");
        }
      }
    }
  }
  // Relative clauses skip the baseline cell, so one cell leaves them
  // nothing to check.
  for (std::size_t t = 0; t < spec.thresholds_.size(); ++t) {
    if (spec.thresholds_[t].relative && spec.Cells() == 1) {
      return Fail(error, require_lines[t],
                  "a relative clause needs a second cell to compare with "
                  "the baseline (add a variant or an axis value)");
    }
  }
  if (out != nullptr) *out = std::move(spec);
  return true;
}

std::string
ResolveBase(const std::string& base, const std::string& exp_dir)
{
  const bool is_path = base.find('/') != std::string::npos
      || (base.size() > 4
          && base.compare(base.size() - 4, 4, ".exp") == 0);
  if (is_path) return base;
  return exp_dir + "/" + base + ".exp";
}

}  // namespace dilu::sweep
