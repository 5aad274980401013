#!/usr/bin/env python3
"""Compare two perfbench binaries over interleaved same-host pairs.

Usage (from the repository root):

    python3 tools/perfbench_pairs.py BEFORE AFTER \\
        --workload churn_fleet --workload dense_mix \\
        --pairs 10 --seconds 10 [--seed 1] [--trace 0]

BEFORE and AFTER are perfbench executables (perfbench/run.py builds one
into $CARGO_TARGET_DIR/perfbench/perfbench). For each workload the
script runs N pairs, alternating which side goes first (odd pairs
BEFORE first, even pairs AFTER first), so a host that drifts during
the series penalises both sides alike. It prints one
`dilu-perfbench-trajectory/1` JSON object (PERFORMANCE.md): for every
end-to-end metric of BENCHMARK.json that varied, each run's value,
linear-interpolated quartiles per side, the pairs AFTER won and the
verdict of the acceptance rule (see verdict()); the metrics every run
reproduced exactly (the simulated ones, for a perf-only change) are
listed under `identical` with their value. Exits 1 if any run fails or
reports failed checks.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]
    return [(m["name"], m["better"], m["bound"]) for m in declared]


def run_once(binary, args):
    # Linux keeps ru_maxrss across execve, so a perfbench exec'd straight
    # from this process would report at least this interpreter's RSS
    # as its peak_rss_mb. sh forks before it execs perfbench, which
    # then starts from sh's small high-water mark instead.
    cmd = ["/bin/sh", "-c", '"$0" "$@"; exit $?', binary] + args
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench_pairs: %s exited %d"
                 % (binary, done.returncode))
    report = json.loads(lines[-1])
    if report.get("failed", 0) != 0:
        sys.exit("perfbench_pairs: %s reported failed checks" % binary)
    return {k: v["value"] for k, v in report["metrics"].items()}


def sig(x):
    """Six significant digits, as the checked-in BENCH files carry."""
    return float("%.6g" % x)


def quantile(values, q):
    """Linear interpolation at (n - 1) * q over the sorted values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


def quartiles(values):
    return [sig(quantile(values, q)) for q in (0.25, 0.5, 0.75)]


def improves(x, y, better):
    """True if y is better than x."""
    return y > x if better == "higher" else y < x


def verdict(before, after, better, bound):
    """The acceptance rule's reading of paired runs of one metric.

    `bound` is the metric's relative BENCHMARK.json bound. In order:
    - gain: AFTER wins at least 9 of 10 pairs and its median is better
      than BEFORE's by more than BEFORE's interquartile range;
    - worse: AFTER's median is worse than BEFORE's by more than the
      bound (relative to BEFORE's median);
    - unresolved: BEFORE's interquartile range is wider than the bound
      (relative to its median), unless every AFTER run is better than
      every BEFORE run;
    - within_bound: anything else.
    """
    wins = sum(1 for x, y in zip(before, after) if improves(x, y, better))
    med_b = quantile(before, 0.5)
    med_a = quantile(after, 0.5)
    iqr_b = quantile(before, 0.75) - quantile(before, 0.25)
    if (10 * wins >= 9 * len(before) and improves(med_b, med_a, better)
            and abs(med_a - med_b) > iqr_b):
        return "gain"
    scale = abs(med_b)
    if (improves(med_a, med_b, better)
            and abs(med_a - med_b) > bound * scale):
        return "worse"
    separated = all(improves(x, y, better) for x in before for y in after)
    if iqr_b > bound * scale and not separated:
        return "unresolved"
    return "within_bound"


def compare(before, after, metrics):
    result = {}
    identical = {}
    for name, better, bound in metrics:
        b = [r[name] for r in before]
        a = [r[name] for r in after]
        if len(set(b + a)) == 1:
            identical[name] = b[0]
            continue
        wins = sum(1 for x, y in zip(b, a) if improves(x, y, better))
        result[name] = {
            "better": better,
            "before_quartiles": quartiles(b),
            "after_quartiles": quartiles(a),
            "after_wins": "%d/%d" % (wins, len(b)),
            "verdict": verdict(b, a, better, bound),
            "before_runs": [sig(x) for x in b],
            "after_runs": [sig(x) for x in a],
        }
    result["identical"] = identical
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--trace", default="0")
    opts = ap.parse_args()

    metrics = end_to_end_metrics()
    out = {
        "schema": "dilu-perfbench-trajectory/1",
        "method": "perfbench --seed %s --seconds %s --trace %s, %d "
                  "interleaved pairs per workload (odd pairs before "
                  "first, even pairs after first); quartiles are "
                  "linear-interpolated over the runs."
                  % (opts.seed, opts.seconds, opts.trace, opts.pairs),
        "end_to_end": {},
    }
    for workload in opts.workload:
        args = ["--workload", workload, "--seed", opts.seed,
                "--seconds", opts.seconds, "--trace", opts.trace]
        before, after = [], []
        for i in range(opts.pairs):
            if i % 2 == 0:
                before.append(run_once(opts.before, args))
                after.append(run_once(opts.after, args))
            else:
                after.append(run_once(opts.after, args))
                before.append(run_once(opts.before, args))
            print("perfbench_pairs: %s pair %d/%d done"
                  % (workload, i + 1, opts.pairs), file=sys.stderr)
        out["end_to_end"][workload] = compare(before, after, metrics)
    # One line per list of numbers, as in the checked-in BENCH files.
    print(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                 lambda m: "[" + ", ".join(
                     x.strip() for x in m.group(1).split(",")) + "]",
                 json.dumps(out, indent=2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
