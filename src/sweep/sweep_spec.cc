#include "sweep/sweep_spec.h"

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
  const std::string metric(tok);
  if (!IsSweepMetric(metric)) {
    return Fail(error, line_no,
                "unknown metric '" + metric
                    + "' (dilu_sweep --metrics lists the registry)");
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
  spec->Require(metric, op, value, relative);
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
SweepSpec::Require(std::string metric, ThresholdOp op, double value,
                   bool relative)
{
  thresholds_.push_back(
      Threshold{std::move(metric), op, value, relative});
  return *this;
}

std::size_t
SweepSpec::Cells() const
{
  std::size_t cells = 1;
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
  for (const SweepAxis& a : axes_) {
    out << "axis " << a.path;
    for (const std::string& v : a.values) out << ' ' << v;
    out << '\n';
  }
  for (const Threshold& t : thresholds_) {
    out << "require " << t.metric << ' '
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
        if (directive == "axis") {
          return ParseAxisLine(toks, line, &spec, error);
        }
        if (directive == "require") {
          return ParseRequireLine(toks, line, &spec, error);
        }
        return Fail(error, line,
                    "unknown directive '" + std::string(directive)
                        + "' (want sweep/base/seeds/axis/require)");
      });
  if (!ok) return false;
  if (!have_name) {
    return Fail(error, line_no, "a sweep needs a 'sweep <name>' line");
  }
  if (!have_base) {
    return Fail(error, line_no, "a sweep needs a 'base <experiment>' line");
  }
  if (out != nullptr) *out = std::move(spec);
  return true;
}

}  // namespace dilu::sweep
