/**
 * @file
 * Parameter paths into an ExperimentSpec.
 *
 * A sweep axis names a single knob of the base experiment by path —
 * `cluster.recovery`, `deploy[0].provision`, `workload[1].rps`,
 * `chaos.intensity` — and ApplyParam sets it from a string value.
 * Every path except `chaos.intensity` is a token edit of the spec's
 * canonical text (ExperimentSpec::ToText) followed by a re-parse, so
 * the experiment loader is the only validator: a sweep cell can never
 * construct a spec the loader would reject, and a key the loader
 * learns is sweepable with no change here. The key grammar is in
 * docs/EXPERIMENTS.md; the path grammar in docs/SWEEP.md.
 *
 * Paths (each edits, or appends, one `key=value` token):
 *   cluster.<key>      the `cluster` line (added when absent); seed=
 *                      is reserved for the sweep's seed axis
 *   deploy[i].<key>    the i-th `deploy` line; model= and name= are
 *                      reserved (changing the function identity
 *                      mid-sweep would compare different workloads,
 *                      not policies)
 *   workload[i].<key>  the i-th `workload` line, before its `for`;
 *                      seed= is reserved, and `duration` edits the
 *                      `for` operand
 *   run.for            the `run for` operand (line added when absent)
 *   chaos.intensity    not a token: scales the scenario. Surge
 *                      extra-RPS is multiplied by the factor, and
 *                      overload / cold-start-inflation /
 *                      storage-brownout factors f become
 *                      1 + (f - 1) * intensity, so 1 replays the
 *                      scenario as written and 0 < i < 1 softens it
 *
 * A value must be one token: whitespace would splice in a second key
 * and '#' would comment out the rest of the line.
 */
#ifndef DILU_EXPERIMENT_SPEC_PARAMS_H_
#define DILU_EXPERIMENT_SPEC_PARAMS_H_

#include <string>

#include "experiment/experiment_spec.h"

namespace dilu::experiment {

/**
 * Set the knob `path` of `*spec` to `value`. On failure returns false
 * and leaves "<path>: <reason>" in `*error` (when non-null) — for a
 * value the loader rejects, its message without the line number;
 * `*spec` is unchanged on failure.
 */
bool ApplyParam(ExperimentSpec* spec, const std::string& path,
                const std::string& value, std::string* error);

}  // namespace dilu::experiment

#endif  // DILU_EXPERIMENT_SPEC_PARAMS_H_
